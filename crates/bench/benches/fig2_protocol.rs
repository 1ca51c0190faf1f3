//! Figure 2, blocking vs pipelined protocol timelines: `vscc_bench::fig2`.

fn main() {
    vscc_bench::run("fig2_protocol");
}

//! Figure 6a, on-chip and inter-device Ping-Pong throughput: `vscc_bench::fig6`.

fn main() {
    vscc_bench::run("fig6a_pingpong");
}

//! Figure 7, NPB BT class C performance over core counts: `vscc_bench::bt`.

fn main() {
    vscc_bench::run("fig7_npb_bt");
}

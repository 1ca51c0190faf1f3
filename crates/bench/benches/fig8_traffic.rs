//! Figure 8, NPB BT class C traffic of 64 cores: `vscc_bench::bt`.

fn main() {
    vscc_bench::run("fig8_traffic");
}

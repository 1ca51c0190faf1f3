//! Ablations of the design choices DESIGN.md calls out: `vscc_bench::ablation`.

fn main() {
    vscc_bench::run("tbl_ablation");
}

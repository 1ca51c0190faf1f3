//! §2.3, instability of the fast write-acknowledge path: `vscc_bench::stability`.

fn main() {
    vscc_bench::run("tbl_stability");
}

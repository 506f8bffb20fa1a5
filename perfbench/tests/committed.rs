//! The committed `results/` artifacts are what the default-seed figures
//! sequence produces. Alone in its own test binary: the check pins
//! `CHARM_SHARDS` for the process while it runs.

#[test]
fn default_seed_figures_match_the_committed_results() {
    charm_perfbench::figures::check_committed(&charm_perfbench::results_dir()).unwrap();
}

//! A tiered live handle with neither a WAL nor a cold-file path keeps
//! its cold file in the temp dir, named for this process. The file is
//! unlinked as soon as the tier holds it open, so nothing named
//! `taxrec-tier-<pid>-*` outlives the handle — or is there while it
//! serves.
//!
//! One test in its own binary: no other test of this process may spawn
//! a tier while the temp dir is listed.

use taxrec_core::live::{LiveConfig, LiveHandle, LiveState, UpdateEvent};
use taxrec_core::recommend::RecommendRequest;
use taxrec_core::{ModelConfig, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};

/// The temp-dir files this process's tiers are named after.
fn own_cold_files() -> Vec<String> {
    let prefix = format!("taxrec-tier-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is listable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn a_temp_dir_cold_file_is_unlinked_once_the_tier_holds_it() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(24), 3);
    let model = TfTrainer::new(
        ModelConfig::tf(3, 1).with_factors(4).with_epochs(1),
        &d.taxonomy,
    )
    .fit(&d.train, 5);
    let resident = model.clone();
    let handle = LiveHandle::spawn(
        LiveState::new(model),
        LiveConfig {
            user_tier_budget: Some(4),
            ..LiveConfig::default()
        },
    )
    .expect("spawn a tiered handle");
    assert_eq!(own_cold_files(), Vec::<String>::new(), "while serving");

    // Every user row is still read back, from the unlinked file, and a
    // write still applies.
    let snap = handle.cell().load();
    let reference = taxrec_core::recommend::RecommendEngine::new(&resident);
    for user in 0..resident.num_users() {
        let req = RecommendRequest::simple(user, 5);
        assert_eq!(
            snap.engine().recommend(&req),
            reference.recommend(&req),
            "user {user}"
        );
    }
    drop(snap);
    handle
        .submit(UpdateEvent::FoldInUser {
            history: d.train.user(0).to_vec(),
            steps: 10,
            seed: 1,
        })
        .expect("fold-in applies");
    handle.flush().expect("flush");
    drop(handle);
    assert_eq!(own_cold_files(), Vec::<String>::new(), "after drop");
}

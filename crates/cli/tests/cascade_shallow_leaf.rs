//! HTTP regression (ISSUE 24): `POST /items` accepts any interior
//! parent, so an item can sit above the bottom level. A thin cascaded
//! beam that kept such an item used to leave the next level an empty
//! frontier and panic the worker on `clamp(1, 0)`; a wide one silently
//! dropped the item. The item is now a result of the level that keeps
//! it.

use taxrec_cli::serve::{route, LiveServer};
use taxrec_core::live::{LiveConfig, LiveState};
use taxrec_core::{untrained_model, ModelConfig};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};

#[test]
fn cascaded_reads_serve_items_added_under_upper_level_categories() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
    // Random node offsets: a zero-offset item scores what its parent
    // scores, so it tops its level whenever every sibling category's
    // offset points away from the user — often enough over 100 users.
    let model = untrained_model(
        ModelConfig::tf(4, 1)
            .with_factors(4)
            .with_node_init_sigma(0.1),
        &d.taxonomy,
        100,
        1,
    );
    let tax = model.taxonomy();
    let categories: Vec<u32> = [tax.nodes_at_level(1), tax.nodes_at_level(2)].concat();
    let first_new = model.num_items();
    let st = LiveServer::new(LiveState::new(model), d.train, None, LiveConfig::default()).unwrap();
    for parent in &categories {
        let resp = route(
            &st,
            "POST",
            "/items",
            format!("{{\"parent\": {parent}}}").as_bytes(),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let new_ids: Vec<String> = (first_new..first_new + categories.len())
        .map(|i| format!("\"id\":{i},"))
        .collect();

    // The thinnest beam keeps one node per level: whenever that node
    // is one of the new items, the levels below have nothing to score.
    let mut served_thin = 0;
    let mut served_wide = 0;
    for user in 0..100 {
        let thin = route(
            &st,
            "GET",
            &format!("/recommend?user={user}&cascade=0.01"),
            b"",
        );
        assert_eq!(thin.status, 200, "user {user}: {}", thin.body);
        served_thin += usize::from(new_ids.iter().any(|id| thin.body.contains(id)));
        // A beam that prunes nothing ranks the whole catalog, the new
        // items included.
        let wide = route(
            &st,
            "GET",
            &format!("/recommend?user={user}&cascade=0.9999&top=100000"),
            b"",
        );
        assert_eq!(wide.status, 200, "user {user}: {}", wide.body);
        served_wide += usize::from(new_ids.iter().all(|id| wide.body.contains(id)));
    }
    assert!(served_thin > 0, "no thin beam ever ended on a new item");
    assert_eq!(
        served_wide, 100,
        "a full beam missed an item above the leaves"
    );
}

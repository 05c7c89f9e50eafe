//! The serving default is the exact radius-bound walk: a server built
//! from `LiveConfig::default()` must answer every read with the
//! byte-identical body of a server forced onto the plain f32 scan
//! (`Backend::Exhaustive`, the oracle) — at every shard count, after
//! every kind of live update (adds under a deepest category, a level-1
//! category and the root among them), and at the edges of `top=`.

use taxrec_cli::serve::{route, LiveServer};
use taxrec_core::live::{LiveConfig, LiveState, UpdateEvent};
use taxrec_core::{Backend, ModelConfig, TfModel, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};
use taxrec_taxonomy::{ItemId, NodeId};

fn server(model: &TfModel, d: &SyntheticDataset, config: LiveConfig) -> LiveServer {
    LiveServer::new(LiveState::new(model.clone()), d.train.clone(), None, config).unwrap()
}

fn body(s: &LiveServer, path: &str) -> String {
    let resp = route(s, "GET", path, b"");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    resp.body
}

#[test]
fn default_config_serves_the_exhaustive_bodies_through_a_live_stream() {
    assert_eq!(LiveConfig::default().backend, Backend::Walk);

    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(80), 13);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(8).with_epochs(2),
        &d.taxonomy,
    )
    .fit(&d.train, 3);
    let n_items = model.num_items() as u32;
    let (parent, level1) = {
        let tax = model.taxonomy();
        (
            tax.parent(tax.item_node(ItemId(0))).unwrap(),
            NodeId(tax.nodes_at_level(1)[0]),
        )
    };
    let whole_catalog: Vec<ItemId> = (0..n_items).map(ItemId).collect();
    let every_other: Vec<ItemId> = (0..n_items).step_by(2).map(ItemId).collect();
    let folded = model.num_users();

    // Add-item / fold-in / refold, interleaved. User `folded` bought
    // the whole trained catalog, so its exclusions cover the top-K and
    // only items added later can be served; user `folded + 1` is
    // refolded from a short history onto every other item.
    let stream = [
        UpdateEvent::AddItem { parent },
        UpdateEvent::FoldInUser {
            history: vec![whole_catalog],
            steps: 40,
            seed: 1,
        },
        UpdateEvent::FoldInUser {
            history: d.train.user(5).to_vec(),
            steps: 60,
            seed: 2,
        },
        UpdateEvent::AddItem { parent },
        UpdateEvent::RefoldUser {
            user: folded + 1,
            history: vec![every_other, vec![ItemId(1), ItemId(3)]],
            steps: 50,
            seed: 3,
        },
        UpdateEvent::AddItem { parent },
        UpdateEvent::AddItem { parent: level1 },
        UpdateEvent::AddItem {
            parent: NodeId::ROOT,
        },
        UpdateEvent::AddItem { parent: level1 },
    ];
    let reads = [
        "/recommend?user=0".to_string(),
        "/recommend?user=17&top=1".to_string(),
        "/recommend?user=3&top=0".to_string(),
        format!("/recommend?user=9&top={}", n_items + 100),
        "/recommend/batch?users=0-11&top=7&threads=1".to_string(),
        "/recommend/batch?users=0-3&top=0".to_string(),
    ];
    // Valid once both fold-ins (events 1 and 2) have applied.
    let folded_reads = [
        format!("/recommend?user={folded}&top=10"),
        format!("/recommend?user={}&top=10", folded + 1),
        format!(
            "/recommend/batch?users=2,40,{folded},{}&top=5&threads=2",
            folded + 1
        ),
    ];

    for scan_shards in [1usize, 2, 3] {
        let default = LiveConfig {
            scan_shards,
            ..LiveConfig::default()
        };
        let forced = LiveConfig {
            scan_shards,
            backend: Backend::Exhaustive,
            ..LiveConfig::default()
        };
        let served = server(&model, &d, default);
        let oracle = server(&model, &d, forced);
        let check = |step: &str, folded_too: bool| {
            let extra = if folded_too { &folded_reads[..] } else { &[] };
            for path in reads.iter().chain(extra) {
                assert_eq!(
                    body(&served, path),
                    body(&oracle, path),
                    "S={scan_shards} {step}: {path}"
                );
            }
        };
        check("before the stream", false);
        for (i, ev) in stream.iter().enumerate() {
            served.live().submit(ev.clone()).unwrap();
            oracle.live().submit(ev.clone()).unwrap();
            check(&format!("after event {i}"), i >= 2);
        }

        // The user who bought the whole trained catalog is served only
        // the six items added live — the exclusions ate the rest.
        let only_new = body(&served, &format!("/recommend?user={folded}&top=10"));
        assert_eq!(only_new.matches("\"id\":").count(), 6, "{only_new}");
        // Neither server ran the int8 scan.
        let scans = |s: &LiveServer| s.live().cell().load().engine().quant_pool_stats().scans;
        assert_eq!(scans(&served), 0, "S={scan_shards}");
        assert_eq!(scans(&oracle), 0, "S={scan_shards}");
    }
}

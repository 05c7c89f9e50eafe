//! # taxrec-core
//!
//! The taxonomy-aware latent factor model **TF(U, B)** of Kanagal et al.,
//! *"Supercharging Recommender Systems using Taxonomies for Learning User
//! Purchase Behavior"*, PVLDB 5(10), 2012 — plus everything around it:
//! BPR/SGD training (serial and multi-core with per-row locks and drift
//! caches), sibling-based training, exhaustive and cascaded inference,
//! ranking metrics, a parallel evaluation harness, and factor-space
//! diagnostics.
//!
//! ## Model zoo (paper Sec. 7.2)
//!
//! | System  | Construction                         | Notes                       |
//! |---------|--------------------------------------|-----------------------------|
//! | `MF(0)` | [`ModelConfig::mf`]`(0)`             | BPR matrix factorisation    |
//! | `MF(1)` | [`ModelConfig::mf`]`(1)`             | FPMC (Rendle et al. 2010)   |
//! | `TF(U,0)` | [`ModelConfig::tf`]`(U, 0)`        | taxonomy, no temporal term  |
//! | `TF(U,B)` | [`ModelConfig::tf`]`(U, B)`        | full model                  |
//!
//! ## End to end
//!
//! ```
//! use taxrec_core::{ModelConfig, TfTrainer, eval::{evaluate, EvalConfig}};
//! use taxrec_dataset::{DatasetConfig, SyntheticDataset};
//!
//! let data = SyntheticDataset::generate(&DatasetConfig::tiny(), 1);
//! let cfg = ModelConfig::tf(4, 1).with_factors(8).with_epochs(3);
//! let model = TfTrainer::new(cfg, &data.taxonomy).fit(&data.train, 1);
//! let result = evaluate(&model, &data.train, &data.test, &EvalConfig::fast());
//! println!("AUC = {:?}", result.auc);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod dynamic;
pub mod eval;
pub mod histogram;
pub mod inference;
pub mod live;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod obs;
pub mod persist;
pub mod recommend;
pub mod scoring;
pub mod tier;
pub mod train;
pub mod tune;
pub mod viz;

pub use config::ModelConfig;
pub use eval::{
    evaluate, evaluate_cascaded, evaluate_static, CascadeEvalResult, EvalConfig, EvalResult,
};
pub use inference::{cascade, cascaded_auc, CascadeConfig, CascadeResult};
pub use live::{LiveConfig, LiveEngine, LiveHandle, LiveState, ModelCell, UpdateEvent};
pub use model::TfModel;
pub use obs::{MetricsRegistry, Obs, ScanMetrics, Tracer};
pub use recommend::{
    Backend, F32Kernel, QuantPoolStats, QuantizedConfig, RecommendEngine, RecommendRequest,
    SCAN_KERNEL_ENV,
};
pub use scoring::Scorer;
pub use tier::{FoldRecipe, TierStatsSnapshot, UserTier};
pub use train::{untrained_model, TfTrainer, TrainStats};
pub use tune::{grid_search, holdout_last_t, GridSearchResult};

#[cfg(test)]
pub(crate) use temp_dir::TempDir;

#[cfg(test)]
mod temp_dir {
    use std::path::{Path, PathBuf};

    /// A directory for unit tests under the system temp dir, named
    /// `<name>-<pid>`, created empty and removed with its contents on
    /// drop, so a test run leaves nothing behind.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(name: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("creating a test temp dir");
            TempDir(dir)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

//! One runner per paper figure/table.
//!
//! Every runner takes an [`ExperimentConfig`] (scale knobs) and returns
//! [`Table`](crate::Table)s whose rows mirror what the paper plots. The
//! `vstress-repro` binary runs them all; `EXPERIMENTS.md` records the
//! paper-reported vs measured shapes.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`catalogue::table1_vbench`] | Table 1 — the vbench clip list |
//! | [`runtime_quality::fig01_runtime_vs_crf`] | Fig. 1 — runtime vs CRF per codec |
//! | [`runtime_quality::fig02a_bdrate`] | Fig. 2a — PSNR BD-Rate vs runtime |
//! | [`runtime_quality::fig02b_psnr_vs_time`] | Fig. 2b — PSNR vs runtime |
//! | [`mix::table2_instruction_mix`] | Table 2 — instruction mix per clip |
//! | [`mix::fig03_opmix_sweep`] | Fig. 3 — op mix vs CRF |
//! | [`crf_sweep::fig04_crf_sweep`] | Fig. 4 — instructions / time / IPC vs CRF |
//! | [`crf_sweep::fig05_topdown`] | Fig. 5 — top-down per clip vs CRF |
//! | [`crf_sweep::fig06_microarch`] | Fig. 6 — MPKI + resource stalls vs CRF |
//! | [`crf_sweep::fig07_missrate`] | Fig. 7 — branch miss rate vs CRF |
//! | [`cbp::fig08_cbp`] (+ fig09/fig10) | Figs. 8–10 — CBP predictor study |
//! | [`preset_sweep::preset_sweep`] + formatters | Fig. 11 — preset sweep |
//! | [`threads::fig12_15_thread_scaling`] | Figs. 12–15 — thread scalability |
//! | [`threads::fig16_topdown_threads`] | Fig. 16 — top-down vs threads |
//! | [`decode_cost::table_decode_vs_encode`] | §2.2's encode≫decode premise (extension) |
//! | [`profile::table_hot_kernels`] | §3.4's gprof hot-function step (extension) |

pub mod catalogue;
pub mod cbp;
pub mod crf_sweep;
pub mod decode_cost;
pub mod mix;
pub mod preset_sweep;
pub mod profile;
pub mod runtime_quality;
pub mod threads;

use crate::exec::{default_threads, RunCache, RunStore};
use std::sync::Arc;
use vstress_video::vbench::FidelityConfig;

/// Scale knobs shared by every experiment runner.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Worker threads for the experiment executor (≥ 1). Runners fan
    /// their independent encodes out over this many scoped threads;
    /// results are bit-identical at any value.
    pub threads: usize,
    /// Shared memoization cache for runs, clips and branch windows.
    /// `Clone` shares it, so runners invoked on clones of one config
    /// reuse each other's encodes.
    pub cache: Arc<RunCache>,
    /// Clip synthesis fidelity.
    pub fidelity: FidelityConfig,
    /// Cache scale divisor matching the fidelity.
    pub cache_divisor: usize,
    /// Clips used by the per-clip experiments (Table 2, Figs. 3–10).
    pub clips: Vec<&'static str>,
    /// The clip used by the single-clip experiments (Figs. 1, 2, 11–16);
    /// the paper uses `game1`.
    pub headline_clip: &'static str,
    /// CRF points for the AV1-family sweeps.
    pub crf_points: Vec<u8>,
    /// Preset points for the preset sweep (AV1-family direction).
    pub preset_points: Vec<u8>,
    /// Maximum thread count for the scalability study.
    pub max_threads: usize,
    /// Branch-trace window length (instructions) for the CBP study; the
    /// paper uses 1 B on native runs.
    pub cbp_window: u64,
    /// Tile workers per encode (`RunSpec::tile_workers`): the
    /// intra-encode tile/wavefront decomposition. Results are
    /// byte-identical at any value (the probe-merge contract), so this
    /// is purely a wall-clock knob.
    pub tile_workers: usize,
    /// Frame workers per encode (`RunSpec::frame_workers`): the
    /// frames in flight per encode. Results are byte-identical at any
    /// value (the probe-merge contract), so this too is purely a
    /// wall-clock knob.
    pub frame_workers: usize,
}

impl ExperimentConfig {
    /// Reduced-cost profile: smoke-fidelity clips, a 5-clip subset, 3 CRF
    /// points. Finishes in a couple of minutes on a laptop; used by tests
    /// and the default `vstress-repro` invocation.
    pub fn quick() -> Self {
        ExperimentConfig {
            threads: default_threads(),
            cache: Arc::new(RunCache::new()),
            fidelity: FidelityConfig::smoke(),
            cache_divisor: 16,
            clips: vec!["desktop", "bike", "game1", "cat", "hall"],
            headline_clip: "game1",
            crf_points: vec![10, 35, 60],
            preset_points: vec![0, 2, 4, 6, 8],
            max_threads: 8,
            cbp_window: 400_000,
            tile_workers: 1,
            frame_workers: 1,
        }
    }

    /// The full profile: default fidelity, all fifteen clips, six CRF
    /// points — the configuration behind `EXPERIMENTS.md`.
    pub fn paper() -> Self {
        ExperimentConfig {
            threads: default_threads(),
            cache: Arc::new(RunCache::new()),
            fidelity: FidelityConfig::default(),
            cache_divisor: 8,
            clips: vstress_video::vbench::clip_names().collect(),
            headline_clip: "game1",
            crf_points: vec![10, 20, 30, 40, 50, 60],
            preset_points: vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
            max_threads: 8,
            cbp_window: 4_000_000,
            tile_workers: 1,
            frame_workers: 1,
        }
    }

    /// Sets the executor's worker-thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Sets the per-encode tile-worker count (builder style). See
    /// [`ExperimentConfig::tile_workers`].
    #[must_use]
    pub fn with_tile_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one tile worker");
        self.tile_workers = workers;
        self
    }

    /// Sets the per-encode frame-worker count (builder style). See
    /// [`ExperimentConfig::frame_workers`].
    #[must_use]
    pub fn with_frame_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one frame worker");
        self.frame_workers = workers;
        self
    }

    /// Replaces this config's cache with one backed by a persistent
    /// [`RunStore`] (builder style): completed runs, branch windows and
    /// decode-cost pairs are reloaded from `store` instead of being
    /// recomputed, so an interrupted or repeated profile resumes.
    ///
    /// Call this before sharing the config — the cache is swapped, so
    /// earlier clones keep the old (store-less) one.
    #[must_use]
    pub fn with_store(mut self, store: Arc<RunStore>) -> Self {
        self.cache = Arc::new(RunCache::with_store(store));
        self
    }

    /// Characterizes every spec in input order through this config's
    /// executor and run cache.
    ///
    /// # Errors
    ///
    /// Returns the first-by-index [`crate::workbench::WorkbenchError`].
    pub fn run_specs(
        &self,
        specs: &[crate::workbench::RunSpec],
    ) -> Result<Vec<Arc<crate::workbench::CharacterizationRun>>, crate::workbench::WorkbenchError>
    {
        crate::exec::run_all(&self.cache, self.threads, specs)
    }

    /// The synthesized clip for `name` at this config's fidelity, via
    /// the clip cache.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clip names.
    pub fn clip(
        &self,
        name: &'static str,
    ) -> Result<Arc<vstress_video::Clip>, crate::workbench::WorkbenchError> {
        self.cache.clip(name, &self.fidelity)
    }

    /// A [`crate::workbench::RunSpec`] for this config.
    pub fn spec(
        &self,
        clip: &'static str,
        codec: vstress_codecs::CodecId,
        params: vstress_codecs::EncoderParams,
    ) -> crate::workbench::RunSpec {
        crate::workbench::RunSpec {
            clip,
            codec,
            params,
            fidelity: self.fidelity.clone(),
            cache_divisor: self.cache_divisor,
            model_pipeline: true,
            tile_workers: self.tile_workers,
            frame_workers: self.frame_workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_small() {
        let q = ExperimentConfig::quick();
        assert!(q.clips.len() <= 6);
        assert!(q.crf_points.len() <= 3);
        assert_eq!(q.headline_clip, "game1");
    }

    #[test]
    fn paper_config_covers_all_clips() {
        let p = ExperimentConfig::paper();
        assert_eq!(p.clips.len(), 15);
        assert_eq!(p.crf_points.len(), 6);
    }
}

//! Trained-estimator cache: skip the 12k–50k-iteration MLP training when
//! an identical estimator has already been produced.
//!
//! A trained [`MemoryEstimator`] is a pure function of what it was trained
//! on: the profiling sweep ([`SampleSpec`]), the ground-truth simulator
//! ([`MemorySim`], which carries the cluster's memory options and noise
//! seed), the target model ([`GptConfig`]), and the training protocol
//! ([`MemoryEstimatorConfig`], which contains the `TrainConfig`, soft
//! margin, and weight-init seed). The cache keys on a fingerprint of that
//! tuple — FNV-1a over a fixed-width encoding of every field — so two
//! `configure()` calls that would train byte-for-byte the same network
//! share one entry, and anything that changes the result (a different
//! margin, seed, iteration count, cluster, or model) misses.
//!
//! Entries live in memory and, when a directory is configured, on disk as
//! one binary `PIPMEMIX` snapshot per fingerprint (see [`mmap_index`]).
//! Weights are stored as raw `f64` bits, so a reloaded estimator is
//! **bit-exact**: warm-cache recommendations are identical to cold ones
//! (see `tests/estimator_cache.rs`). A snapshot that fails any of its
//! checks is quarantined as `.idx.corrupt`, counted as corrupt, and
//! retrained.

use crate::fnv::Fnv1a;
use crate::memory::dataset::{collect_samples_parallel, SampleSpec};
use crate::memory::estimator::{MemoryEstimator, MemoryEstimatorConfig};
use crate::memory::mmap_index::{self, IndexError};
use pipette_mlp::TrainConfig;
use pipette_model::GptConfig;
use pipette_sim::{ActivationMode, MemorySim, PipelineSchedule, TrainingOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Leads every fingerprint. Bump it when the encoding below changes or a
/// trained estimator stops being a function of exactly these inputs:
/// entries keyed under the old value are then never looked up again.
const FINGERPRINT_FORMAT: u64 = 2;

/// 64-bit FNV-1a fingerprint of the training inputs: every field of the
/// four parts, as fixed-width little-endian words (floats by their bits,
/// enums by a fixed code), each vector preceded by its length. The public
/// structs are destructured without `..`, so a new field fails to compile
/// here until it is hashed.
pub fn estimator_fingerprint(
    spec: &SampleSpec,
    gpt: &GptConfig,
    config: &MemoryEstimatorConfig,
    truth: &MemorySim,
) -> u64 {
    fn usize_word(h: &mut Fnv1a, v: usize) {
        h.u64(v as u64);
    }
    fn gpt_words(h: &mut Fnv1a, gpt: &GptConfig) {
        let GptConfig {
            n_layers,
            hidden,
            n_heads,
            seq_len,
            vocab,
        } = *gpt;
        for v in [n_layers, hidden, n_heads, seq_len, vocab] {
            usize_word(h, v);
        }
    }
    let mut h = Fnv1a::new();
    h.u64(FINGERPRINT_FORMAT);

    let SampleSpec {
        gpu_counts,
        gpus_per_node,
        models,
        global_batches,
        max_micro,
    } = spec;
    usize_word(&mut h, gpu_counts.len());
    for &n in gpu_counts {
        usize_word(&mut h, n);
    }
    usize_word(&mut h, *gpus_per_node);
    usize_word(&mut h, models.len());
    for model in models {
        gpt_words(&mut h, model);
    }
    usize_word(&mut h, global_batches.len());
    for &b in global_batches {
        h.u64(b);
    }
    h.u64(*max_micro);

    gpt_words(&mut h, gpt);

    let MemoryEstimatorConfig {
        train,
        hidden,
        depth,
        soft_margin,
        seed,
    } = *config;
    let TrainConfig {
        iterations,
        learning_rate,
        batch_size,
        record_every,
        seed: train_seed,
    } = train;
    usize_word(&mut h, iterations);
    h.u64(learning_rate.to_bits());
    usize_word(&mut h, batch_size);
    usize_word(&mut h, record_every);
    h.u64(train_seed);
    usize_word(&mut h, hidden);
    usize_word(&mut h, depth);
    h.u64(soft_margin.to_bits());
    h.u64(seed);

    let TrainingOptions {
        schedule,
        activation,
        zero1,
        virtual_stages,
        nic_contention,
    } = truth.options();
    h.u64(match schedule {
        PipelineSchedule::GPipe => 0,
        PipelineSchedule::OneFOneB => 1,
    });
    h.u64(match activation {
        ActivationMode::Full => 0,
        ActivationMode::Selective => 1,
        ActivationMode::FullRecompute => 2,
    });
    h.u64(u64::from(zero1));
    usize_word(&mut h, virtual_stages);
    h.u64(u64::from(nic_contention));
    h.u64(truth.seed());
    h.finish()
}

/// Snapshot of a cache's lookup counters, for reports and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that had to train (including corrupt-entry retrains).
    pub misses: u64,
    /// Disk entries that existed but failed their checks and were
    /// retrained (each such miss is counted in `misses` too). Nonzero is
    /// normal exactly once after a snapshot format change; persistent
    /// growth means something is clobbering the cache directory.
    pub corrupt: u64,
}

/// What a crash-only startup [`sweep`](TrainedEstimatorCache::sweep) of
/// the cache directory found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// `.idx` entries examined.
    pub scanned: u64,
    /// Defective entries renamed to `.idx.corrupt`.
    pub quarantined: u64,
    /// Leftovers deleted: temp files of writers that exited before
    /// renaming them into place, and JSON entries of the retired format.
    pub removed: u64,
}

/// In-memory (and optionally on-disk) cache of trained memory estimators.
///
/// Thread-safe behind `&self`; hit/miss/corrupt counters let callers (and
/// the CI perf smoke job) assert that a warm `configure()` really skipped
/// training.
#[derive(Debug, Default)]
pub struct TrainedEstimatorCache {
    dir: Option<PathBuf>,
    // Ordered by fingerprint so any future iteration (debug dumps,
    // eviction) is deterministic by construction (rule D4).
    entries: Mutex<BTreeMap<u64, MemoryEstimator>>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl TrainedEstimatorCache {
    /// A purely in-memory cache (lives as long as the value).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache that also persists entries as `.idx` snapshots under `dir`
    /// (created on first write). Corrupt files are quarantined and
    /// treated as misses.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Number of lookups answered from memory or disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to train.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of on-disk entries that existed but failed their checks
    /// (each also counted as a miss and retrained).
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// All lookup counters in one snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits(),
            misses: self.misses(),
            corrupt: self.corrupt(),
        }
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the entry map, recovering from poisoning: a panic in some
    /// other thread mid-training never half-writes the map (inserts are
    /// single calls), so the data is still sound and a typed-error-free
    /// recovery beats propagating a panic (rule D2).
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, MemoryEstimator>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn index_path(&self, fp: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("pipette-mem-estimator-{fp:016x}.idx")))
    }

    /// Moves a defective entry to `<name>.idx.corrupt`, so the bad bytes
    /// stay inspectable and the retrained entry gets a clean slot —
    /// without the rename the same file would fail (and be silently
    /// retrained over) every single run.
    fn quarantine(&self, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::rename(path, path.with_extension("idx.corrupt"));
    }

    fn load_from_disk(&self, fp: u64) -> Option<MemoryEstimator> {
        let path = self.index_path(fp)?;
        // `read_index` refuses anything torn, truncated, stale-versioned,
        // mis-keyed or checksum-broken. A file that exists but is refused
        // is a *corrupt* entry, not a plain miss.
        match mmap_index::read_index(&path, fp) {
            Ok(found) => Some(found),
            Err(IndexError::Missing) => None,
            Err(IndexError::Defective) => {
                self.quarantine(&path);
                None
            }
        }
    }

    fn store_to_disk(&self, fp: u64, estimator: &MemoryEstimator) {
        let Some(path) = self.index_path(fp) else {
            return;
        };
        // Persistence is best-effort: a read-only disk must not break
        // configuration, only cost a retrain next process.
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = mmap_index::write_index(&path, fp, estimator);
    }

    /// Crash-only startup sweep of the on-disk cache directory: every
    /// `pipette-mem-estimator-*.idx` entry is checked eagerly and
    /// defective ones are quarantined as `.idx.corrupt` *now* (instead of
    /// lazily at first lookup). After a sweep, every remaining entry is
    /// known-good. The sweep also deletes leftovers no lookup reads: the
    /// `.idx.tmp-<pid>-<n>` file of a writer that exited before its
    /// rename (its pid no longer running) and `.json` entries of
    /// the retired format. Entries are visited in path order, so the
    /// report is deterministic for a given directory state and set of
    /// running processes. A no-op (all zeros) for in-memory caches.
    pub fn sweep(&self) -> SweepReport {
        let mut report = SweepReport::default();
        let Some(dir) = &self.dir else {
            return report;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for path in paths {
            let Some(name) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("pipette-mem-estimator-"))
            else {
                continue;
            };
            if name.ends_with(".json") || mmap_index::abandoned_temp(name) {
                if std::fs::remove_file(&path).is_ok() {
                    report.removed += 1;
                }
                continue;
            }
            let Some(fp) = name
                .strip_suffix(".idx")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            else {
                continue;
            };
            report.scanned += 1;
            if mmap_index::read_index(&path, fp) == Err(IndexError::Defective) {
                self.quarantine(&path);
                report.quarantined += 1;
            }
        }
        report
    }

    /// Returns the cached estimator for these training inputs, or collects
    /// samples and trains one (recording it in memory and, if configured,
    /// on disk). `threads` drives the profiling sweep; the MLP fit runs
    /// on the calling thread. Results are bit-identical at any thread
    /// count, so cached and fresh estimators are interchangeable.
    pub fn get_or_train(
        &self,
        spec: &SampleSpec,
        gpt: &GptConfig,
        config: &MemoryEstimatorConfig,
        truth: &MemorySim,
        threads: usize,
    ) -> MemoryEstimator {
        let fp = estimator_fingerprint(spec, gpt, config, truth);
        if let Some(found) = self.lock_entries().get(&fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found.clone();
        }
        if let Some(found) = self.load_from_disk(fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.lock_entries().insert(fp, found.clone());
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let samples = collect_samples_parallel(spec, truth, threads);
        let estimator = MemoryEstimator::train(&samples, config);
        self.store_to_disk(fp, &estimator);
        self.lock_entries().insert(fp, estimator.clone());
        estimator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Inputs = (SampleSpec, GptConfig, MemoryEstimatorConfig, MemorySim);
    /// One table row: what it changes, and how.
    type Row<T> = (&'static str, fn(&mut T));

    fn tiny_inputs() -> Inputs {
        let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
        let spec = SampleSpec {
            gpu_counts: vec![8],
            gpus_per_node: 8,
            models: vec![gpt],
            global_batches: vec![32],
            max_micro: 2,
        };
        let config = MemoryEstimatorConfig {
            train: TrainConfig {
                iterations: 150,
                learning_rate: 3e-3,
                batch_size: 32,
                record_every: 50,
                seed: 0,
            },
            hidden: 16,
            depth: 2,
            soft_margin: 0.08,
            seed: 1,
        };
        (spec, gpt, config, MemorySim::new(1))
    }

    fn fingerprint((spec, gpt, config, truth): &Inputs) -> u64 {
        estimator_fingerprint(spec, gpt, config, truth)
    }

    fn entry(dir: &Path, fp: u64) -> PathBuf {
        dir.join(format!("pipette-mem-estimator-{fp:016x}.idx"))
    }

    #[test]
    fn fingerprint_separates_training_inputs() {
        fn options(i: &mut Inputs, edit: fn(&mut TrainingOptions)) {
            let mut o = i.3.options();
            edit(&mut o);
            i.3 = i.3.with_options(o);
        }
        let rows: [Row<Inputs>; 25] = [
            ("train.iterations", |i| i.2.train.iterations += 1),
            ("train.learning_rate", |i| i.2.train.learning_rate *= 2.0),
            ("train.batch_size", |i| i.2.train.batch_size += 1),
            ("train.record_every", |i| i.2.train.record_every += 1),
            ("train.seed", |i| i.2.train.seed += 1),
            ("hidden", |i| i.2.hidden += 1),
            ("depth", |i| i.2.depth += 1),
            ("soft_margin", |i| i.2.soft_margin = 0.2),
            ("seed", |i| i.2.seed += 1),
            ("spec.gpu_counts", |i| i.0.gpu_counts.push(16)),
            ("spec.gpus_per_node", |i| i.0.gpus_per_node = 4),
            ("spec.models", |i| i.0.models[0].n_layers += 1),
            ("spec.global_batches", |i| i.0.global_batches.push(64)),
            ("spec.max_micro", |i| i.0.max_micro = 4),
            ("gpt.n_layers", |i| i.1.n_layers += 1),
            ("gpt.hidden", |i| i.1.hidden += 16),
            ("gpt.n_heads", |i| i.1.n_heads = 8),
            ("gpt.seq_len", |i| i.1.seq_len = 1024),
            ("gpt.vocab", |i| i.1.vocab += 1),
            ("truth.seed", |i| {
                i.3 = MemorySim::new(2).with_options(i.3.options())
            }),
            ("options.schedule", |i| {
                options(i, |o| o.schedule = PipelineSchedule::GPipe)
            }),
            ("options.activation", |i| {
                options(i, |o| o.activation = ActivationMode::Selective)
            }),
            ("options.zero1", |i| options(i, |o| o.zero1 = true)),
            ("options.virtual_stages", |i| {
                options(i, |o| o.virtual_stages = 2)
            }),
            ("options.nic_contention", |i| {
                options(i, |o| o.nic_contention = true)
            }),
        ];
        let base = tiny_inputs();
        assert_eq!(fingerprint(&base), fingerprint(&tiny_inputs()));
        let mut seen = BTreeMap::new();
        seen.insert(fingerprint(&base), "base");
        for (field, edit) in rows {
            let mut inputs = tiny_inputs();
            edit(&mut inputs);
            if let Some(clash) = seen.insert(fingerprint(&inputs), field) {
                panic!("changing {field} gives the fingerprint of {clash}");
            }
        }
        // Length prefixes keep a value from moving between adjacent
        // vectors unnoticed.
        let mut moved = tiny_inputs();
        moved.0.gpu_counts = vec![8, 32];
        moved.0.global_batches = vec![];
        let mut kept = tiny_inputs();
        kept.0.gpu_counts = vec![8];
        kept.0.global_batches = vec![32, 32];
        assert_ne!(fingerprint(&moved), fingerprint(&kept));
    }

    #[test]
    fn second_lookup_hits_and_matches_exactly() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let cache = TrainedEstimatorCache::in_memory();
        let first = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_round_trip_is_bit_exact() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let trained = {
            let cold = TrainedEstimatorCache::with_dir(&dir);
            cold.get_or_train(&spec, &gpt, &config, &truth, 1)
        };
        // A fresh cache (empty memory map) must find the file and return
        // the identical estimator.
        let warm = TrainedEstimatorCache::with_dir(&dir);
        let reloaded = warm.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert_eq!(reloaded, trained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_retrains() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let fp = estimator_fingerprint(&spec, &gpt, &config, &truth);
        let rows: [Row<Vec<u8>>; 4] = [
            ("garbage bytes", |b| {
                *b = b"definitely not a snapshot".to_vec()
            }),
            ("half-truncated", |b| b.truncate(b.len() / 2)),
            ("flipped payload byte", |b| {
                let mid = mmap_index::HEADER_LEN + (b.len() - mmap_index::HEADER_LEN) / 2;
                b[mid] ^= 0x40;
            }),
            ("wrong header fingerprint", |b| {
                b[16..24].copy_from_slice(&0xdead_beef_u64.to_le_bytes())
            }),
        ];
        for (defect, damage) in rows {
            let dir = std::env::temp_dir().join("pipette-estimator-cache-corrupt");
            let _ = std::fs::remove_dir_all(&dir);
            let trained =
                TrainedEstimatorCache::with_dir(&dir).get_or_train(&spec, &gpt, &config, &truth, 1);
            let idx = entry(&dir, fp);
            let mut bytes = std::fs::read(&idx).unwrap();
            damage(&mut bytes);
            std::fs::write(&idx, &bytes).unwrap();

            let cache = TrainedEstimatorCache::with_dir(&dir);
            let retrained = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
            assert_eq!(
                cache.counters(),
                CacheCounters {
                    hits: 0,
                    misses: 1,
                    corrupt: 1,
                },
                "{defect}"
            );
            assert_eq!(retrained, trained, "{defect}");
            // The corrupt bytes are quarantined, not overwritten: the slot
            // now holds the retrained entry and the `.corrupt` file keeps
            // the damaged original for inspection.
            assert_eq!(
                std::fs::read(idx.with_extension("idx.corrupt")).unwrap(),
                bytes,
                "{defect}: quarantine file preserves the corrupt bytes"
            );
            assert_eq!(mmap_index::read_index(&idx, fp), Ok(trained), "{defect}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn index_snapshot_alone_serves_a_warm_lookup() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-idx-only");
        let _ = std::fs::remove_dir_all(&dir);
        let trained = {
            let cold = TrainedEstimatorCache::with_dir(&dir);
            cold.get_or_train(&spec, &gpt, &config, &truth, 1)
        };
        // The store leaves exactly one entry and no temp file behind.
        let fp = estimator_fingerprint(&spec, &gpt, &config, &truth);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, [format!("pipette-mem-estimator-{fp:016x}.idx")]);
        let warm = TrainedEstimatorCache::with_dir(&dir);
        let reloaded = warm.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert_eq!(reloaded, trained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_quarantines_and_heals_eagerly() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let trained = {
            let cold = TrainedEstimatorCache::with_dir(&dir);
            cold.get_or_train(&spec, &gpt, &config, &truth, 1)
        };
        let fp = estimator_fingerprint(&spec, &gpt, &config, &truth);
        // Simulate a crash: a second entry was torn on disk.
        let torn = entry(&dir, 0xdead_beef);
        std::fs::write(&torn, b"torn").unwrap();
        // Leftovers: a retired-format JSON entry, the temp file of a
        // writer that is gone (no pid is this large) and one of this
        // still-running process, which must be kept.
        let legacy = torn.with_extension("json");
        let dead_tmp = torn.with_extension(format!("idx.tmp-{}-0", u32::MAX));
        let live_tmp = torn.with_extension(format!("idx.tmp-{}-0", std::process::id()));
        for leftover in [&legacy, &dead_tmp, &live_tmp] {
            std::fs::write(leftover, b"{}").unwrap();
        }
        let procfs = Path::new("/proc/self").exists();
        let cache = TrainedEstimatorCache::with_dir(&dir);
        let report = cache.sweep();
        assert_eq!(
            report,
            SweepReport {
                scanned: 2,
                quarantined: 1,
                removed: 1 + u64::from(procfs),
            }
        );
        assert!(!legacy.exists());
        assert_eq!(dead_tmp.exists(), !procfs);
        assert!(live_tmp.exists());
        std::fs::remove_file(&live_tmp).unwrap();
        assert_eq!(cache.corrupt(), 1);
        // The torn entry is quarantined with its bytes intact...
        assert_eq!(
            std::fs::read(torn.with_extension("idx.corrupt")).unwrap(),
            b"torn"
        );
        // ...and the good entry still round-trips the estimator.
        assert_eq!(mmap_index::read_index(&entry(&dir, fp), fp), Ok(trained));
        // A second sweep finds a fully healthy directory.
        assert_eq!(
            cache.sweep(),
            SweepReport {
                scanned: 1,
                quarantined: 0,
                removed: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_miss_is_not_corrupt() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-plain-miss");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TrainedEstimatorCache::with_dir(&dir);
        let _ = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 0,
                misses: 1,
                corrupt: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

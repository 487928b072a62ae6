//! The span and metric name taxonomy.
//!
//! Names are dotted `area.detail` strings; the prefix before the first
//! dot becomes the chrome-trace category. The full registry (with
//! semantics and subjects) is tabulated in `DESIGN.md` §14.

// --- Stage spans (serial driver thread, one per pipeline stage) -------

/// Behavioral analysis stage.
pub const STAGE_ANALYSIS: &str = "stage.analysis";
/// Structural analysis (families + possible parents).
pub const STAGE_STRUCTURAL: &str = "stage.structural";
/// SLM training stage.
pub const STAGE_TRAINING: &str = "stage.training";
/// Distance-scoring stage.
pub const STAGE_DISTANCES: &str = "stage.distances";
/// Arborescence-lifting stage.
pub const STAGE_LIFTING: &str = "stage.lifting";
/// Cross-family repartition pass.
pub const STAGE_REPARTITION: &str = "stage.repartition";

// --- Per-item spans (worker-local buffers) ----------------------------

/// One function's symbolic execution; subject = entry address.
pub const ANALYSIS_FUNCTION: &str = "analysis.function";
/// One type's SLM training; subject = vtable address.
pub const TRAINING_TYPE: &str = "training.type";
/// One child's candidate-edge scoring; subject = child vtable address.
pub const DISTANCES_CHILD: &str = "distances.child";
/// One candidate pair's KL evaluation; subject = parent vtable address.
pub const DISTANCES_PAIR: &str = "distances.pair";
/// One family's arborescence search; subject = family index.
pub const LIFTING_FAMILY: &str = "lifting.family";
/// One root's cross-family adoption scan; subject = root vtable address.
pub const REPARTITION_ROOT: &str = "repartition.root";

// --- Supervisor spans -------------------------------------------------

/// One supervised job; subject = truncated content key.
pub const SUPERVISOR_JOB: &str = "supervisor.job";
/// One attempt on the retry ladder; subject = attempt ordinal.
pub const SUPERVISOR_ATTEMPT: &str = "supervisor.attempt";
/// Saving one stage checkpoint; subject = stage ordinal.
pub const SUPERVISOR_CHECKPOINT: &str = "supervisor.checkpoint";
/// Restoring the checkpointed prefix; subject = stages restored.
pub const SUPERVISOR_RESTORE: &str = "supervisor.restore";
/// Preloading persisted sub-artifacts into the corpus cache (outside
/// any job); subject = 0.
pub const SUPERVISOR_PRELOAD: &str = "supervisor.preload";
/// Flushing the corpus cache's new sub-artifacts to the store (outside
/// any job); subject = 0.
pub const SUPERVISOR_FLUSH: &str = "supervisor.flush";

/// One daemon connection, accept to close; subject = connection id.
pub const SERVE_CONNECTION: &str = "serve.connection";
/// One admitted request, dequeue to terminal state; subject = job id.
pub const SERVE_REQUEST: &str = "serve.request";
/// A backoff wait between attempts; subject = wait in ms.
pub const SUPERVISOR_BACKOFF: &str = "supervisor.backoff";

// --- Counters ---------------------------------------------------------

/// Functions in the loaded binary.
pub const ANALYSIS_FUNCTIONS_TOTAL: &str = "analysis.functions_total";
/// Functions whose symbolic execution completed.
pub const ANALYSIS_FUNCTIONS_ANALYZED: &str = "analysis.functions_analyzed";
/// Functions excluded (skips + contained panics + budget exhaustion).
pub const ANALYSIS_FUNCTIONS_SKIPPED: &str = "analysis.functions_skipped";
/// Functions excluded specifically by fuel exhaustion (live runs only;
/// checkpoints do not carry it).
pub const ANALYSIS_FUEL_EXHAUSTED: &str = "analysis.fuel_exhausted";
/// Fuel units spent across all completed symbolic executions (live runs
/// only; zero when the analysis stage was restored from a checkpoint).
pub const ANALYSIS_FUEL_SPENT: &str = "analysis.fuel_spent";
/// Tracelets pooled across all types.
pub const ANALYSIS_TRACELETS: &str = "analysis.tracelets";
/// Events across all pooled tracelets.
pub const ANALYSIS_EVENTS: &str = "analysis.events";

/// Vtables the loader accepted.
pub const LOAD_VTABLES_PARSED: &str = "load.vtables_parsed";
/// Vtable candidates the loader rejected.
pub const LOAD_VTABLES_REJECTED: &str = "load.vtables_rejected";

/// Candidate edges eliminated by rule 1 (slot count).
pub const STRUCTURAL_RULE1_ELIMINATED: &str = "structural.rule1_eliminated";
/// Candidate edges eliminated by rule 2 (pure-slot reuse).
pub const STRUCTURAL_RULE2_ELIMINATED: &str = "structural.rule2_eliminated";
/// Candidate edges eliminated by rule 3 (ctor pinning).
pub const STRUCTURAL_RULE3_ELIMINATED: &str = "structural.rule3_eliminated";
/// Candidate edges surviving all elimination rules.
pub const STRUCTURAL_REMAINING: &str = "structural.remaining_candidates";

/// SLMs trained (one per vtable that trained successfully).
pub const SLM_MODELS_TRAINED: &str = "slm.models_trained";
/// Context nodes across all SLM arena tries.
pub const SLM_ARENA_NODES: &str = "slm.arena_nodes";
/// Child edges across all SLM arena tries.
pub const SLM_ARENA_EDGES: &str = "slm.arena_edges";
/// Approximate resident bytes of all SLM arena tries.
pub const SLM_ARENA_BYTES: &str = "slm.arena_bytes";
/// Distinct training sequences after multiplicity deduplication.
pub const SLM_WORDS_UNIQUE: &str = "slm.words_unique";
/// Total training sequences fed in (clones included).
pub const SLM_WORDS_TOTAL: &str = "slm.words_total";

/// Candidate pairs evaluated (accepted + unmodeled).
pub const DISTANCES_PAIRS_SCORED: &str = "distances.pairs_scored";
/// Weighted edges put into family digraphs.
pub const DISTANCES_EDGES: &str = "distances.edges";
/// Candidates skipped for sitting outside their family.
pub const DISTANCES_FOREIGN_CANDIDATES: &str = "distances.foreign_candidates";
/// Candidate pairs dropped because an endpoint had no model.
pub const DISTANCES_UNMODELED: &str = "distances.unmodeled_pairs";
/// Distance asks (distance stage + repartition) that repeat a
/// `(from key, to key)` model pair the run already asked for.
pub const DISTANCES_CACHE_HIT: &str = "distances.cache_hit";
/// Distinct `(from key, to key)` model pairs the run asked a distance
/// for, across the distance stage and repartition.
pub const DISTANCES_CACHE_MISS: &str = "distances.cache_miss";

/// Families found by the structural phase.
pub const LIFTING_FAMILIES_TOTAL: &str = "lifting.families_total";
/// Families whose arborescence search succeeded.
pub const LIFTING_FAMILIES_LIFTED: &str = "lifting.families_lifted";
/// Families degraded to all-roots by a contained fault.
pub const LIFTING_FAMILIES_DEGRADED: &str = "lifting.families_degraded";
/// Co-optimal tie variants enumerated across all families.
pub const LIFTING_TIE_VARIANTS: &str = "lifting.tie_variants";

/// Cross-family adoptions applied by the repartition pass.
pub const REPARTITION_ADOPTIONS: &str = "repartition.adoptions";

/// Diagnostics recorded at error severity.
pub const DIAGNOSTICS_ERRORS: &str = "diagnostics.errors";
/// Diagnostics recorded at warning severity.
pub const DIAGNOSTICS_WARNINGS: &str = "diagnostics.warnings";
/// Approximate bytes retained by the run's diagnostics.
pub const DIAGNOSTICS_BYTES: &str = "diagnostics.bytes";

/// Symbolic executions answered by the corpus tracelet tier.
pub const CORPUS_TRACELET_HIT: &str = "corpus.tracelet_hit";
/// Symbolic executions the corpus tracelet tier could not answer.
pub const CORPUS_TRACELET_MISS: &str = "corpus.tracelet_miss";
/// SLM trainings answered by the corpus model tier.
pub const CORPUS_SLM_HIT: &str = "corpus.slm_hit";
/// SLM trainings the corpus model tier could not answer.
pub const CORPUS_SLM_MISS: &str = "corpus.slm_miss";
/// Distances answered by the corpus distance tier.
pub const CORPUS_DISTANCE_HIT: &str = "corpus.distance_hit";
/// Distances the corpus distance tier could not answer.
pub const CORPUS_DISTANCE_MISS: &str = "corpus.distance_miss";
/// Approximate bytes resident in the corpus cache after the run.
pub const CORPUS_BYTES_STORED: &str = "corpus.bytes_stored";
/// Corpus entries dropped on checksum mismatch (then recomputed).
pub const CORPUS_CORRUPT_DROPPED: &str = "corpus.corrupt_dropped";
/// Corpus entries displaced by capacity eviction (bounded caches).
pub const CORPUS_EVICTED: &str = "corpus.evicted";
/// Family liftings answered by the corpus lifting tier.
pub const CORPUS_LIFTING_HIT: &str = "corpus.lifting_hit";
/// Family liftings the corpus lifting tier could not answer.
pub const CORPUS_LIFTING_MISS: &str = "corpus.lifting_miss";

/// Sub-artifacts restored into the corpus cache at preload.
pub const INCR_PRELOADED: &str = "incr.preloaded";
/// Sub-artifacts newly written to disk at flush.
pub const INCR_FLUSHED: &str = "incr.flushed";
/// Sub-artifacts found already persisted and skipped at flush.
pub const INCR_UNCHANGED: &str = "incr.unchanged";
/// Sub-artifacts rejected at preload (recomputed instead).
pub const INCR_CORRUPT_SKIPPED: &str = "incr.corrupt_skipped";
/// Sub-artifact reads/writes abandoned on an i/o error.
pub const INCR_IO_ERRORS: &str = "incr.io_errors";

/// Orphaned `.art.tmp` files the artifact store swept.
pub const STORE_TMP_SWEPT: &str = "store.tmp_swept";
/// Checkpoint saves re-attempted after a transient i/o fault.
pub const STORE_WRITE_RETRIES: &str = "store.write_retries";
/// Checkpoint saves abandoned after retries (resume lost, job lives).
pub const STORE_WRITE_FAILURES: &str = "store.write_failures";
/// Artifact loads re-attempted after a transient i/o fault.
pub const STORE_READ_RETRIES: &str = "store.read_retries";
/// Artifact loads abandoned after retries (the job recomputes).
pub const STORE_READ_FAILURES: &str = "store.read_failures";
/// Artifacts whose checksum or frame failed verification.
pub const STORE_CORRUPT_DETECTED: &str = "store.corrupt_detected";
/// Saves skipped after degrading to recompute-without-checkpointing.
pub const STORE_CHECKPOINTS_SKIPPED: &str = "store.checkpoints_skipped";
/// Backoff milliseconds scheduled for store retries.
pub const STORE_RETRY_BACKOFF_MS: &str = "store.retry_backoff_ms";

/// Attempts the supervised job made (1 = clean first try).
pub const SUPERVISOR_ATTEMPTS: &str = "supervisor.attempts";
/// Stage checkpoints the job saved.
pub const SUPERVISOR_CHECKPOINTS_SAVED: &str = "supervisor.checkpoints_saved";
/// Stages restored from artifacts on resume.
pub const SUPERVISOR_STAGES_RESTORED: &str = "supervisor.stages_restored";
/// Total scheduled backoff across attempts, milliseconds.
pub const SUPERVISOR_BACKOFF_MS: &str = "supervisor.backoff_ms_total";

/// Connections the serve daemon accepted.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Request frames the daemon decoded (well-formed or not).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Submissions admitted to the queue.
pub const SERVE_ACCEPTED: &str = "serve.accepted";
/// Admitted jobs that ran to a terminal state.
pub const SERVE_COMPLETED: &str = "serve.completed";
/// Submissions shed because the admission queue was full.
pub const SERVE_REJECTED_QUEUE_FULL: &str = "serve.rejected_queue_full";
/// Submissions shed by a per-client quota (tokens or inflight).
pub const SERVE_REJECTED_QUOTA: &str = "serve.rejected_quota";
/// Submissions shed because the daemon was draining.
pub const SERVE_REJECTED_DRAINING: &str = "serve.rejected_draining";
/// Submissions shed because the image exceeded the size cap.
pub const SERVE_REJECTED_TOO_LARGE: &str = "serve.rejected_too_large";
/// Malformed frames answered with a typed protocol error.
pub const SERVE_PROTOCOL_ERRORS: &str = "serve.protocol_errors";
/// Job panics contained by the worker (daemon kept serving).
pub const SERVE_PANICS_CONTAINED: &str = "serve.panics_contained";
/// Connections dropped for exhausting their send budget or write
/// timeout (slow readers).
pub const SERVE_SLOW_CLIENT_DROPS: &str = "serve.slow_client_drops";
/// Jobs cancelled while still queued.
pub const SERVE_CANCELLED: &str = "serve.cancelled";

// --- Histograms -------------------------------------------------------

/// Tracelet lengths (events per tracelet) across all pools.
pub const HIST_TRACELET_LEN: &str = "analysis.tracelet_len";
/// Arena nodes per trained model.
pub const HIST_NODES_PER_MODEL: &str = "slm.nodes_per_model";
/// Surviving candidate parents per child.
pub const HIST_CANDIDATES_PER_CHILD: &str = "distances.candidates_per_child";
/// Members per family at lifting time.
pub const HIST_FAMILY_SIZE: &str = "lifting.family_size";

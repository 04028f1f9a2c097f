// Package shard turns the single-process ALS system into a real
// multi-process deployment, replacing the simulated-clock cluster model in
// internal/cluster with processes that talk over actual sockets:
//
//   - Shard replicas (Replica): an alsserve process started with -shard i/N
//     holds only its static range of the item factors and answers partial
//     top-N queries with the same bounded per-shard heaps the in-process
//     scorer uses, plus the internal endpoints the frontend composes
//     (/shard/v1/info, /shard/v1/partials, /shard/v1/score,
//     /shard/v1/purge).
//
//   - A scatter-gather frontend (Frontend, cmd/alsfront): fans /v1/recommend
//     and /v1/foldin out to the shard fleet over HTTP, merges the per-shard
//     heaps with metrics.TopK (identical tie-breaking to a single-process
//     scan of the full catalog), applies a per-shard deadline, retries a
//     transiently failed leg once with jittered backoff inside that
//     deadline (als_shard_retries_total), and degrades to partial results
//     when a shard stays down — counted in als_shard_partial_total and
//     reflected by /readyz.
//
//   - A data-parallel trainer (Train/TrainWith/RunWorker, alstrain
//     -workers N): worker processes each solve one static user-row (and
//     item-row) partition on a host.Pool and allgather the updated factors
//     between half-iterations over a length-prefixed TCP exchange relayed
//     by the coordinator. The coordinator's supervisor is only a half
//     executor (host.Executor): the training lifecycle — resume and its
//     validation, checkpoint cadence and GC, the graceful interrupt, loss
//     tracking and the run recorder — is core.TrainOn's, the same driver
//     core.Train runs. Row updates are pure functions of the fixed factors,
//     so the distributed model is bit-identical to the single-process run
//     on the same seed in every training mode (explicit or implicit, any
//     row solver, iALS++ blocks).
//
//   - Worker supervision on that trainer: every frame carries a CRC-32C
//     trailer (corruption is the typed ErrFrameCorrupt, never silent bad
//     floats), workers heartbeat while they compute, and a crashed, hung or
//     corrupting rank is respawned mid-run, reseeded from the in-memory
//     factors at the interrupted half-iteration. Once the respawn budget
//     (TrainerConfig.MaxRespawns) is spent the cohort elastically
//     downscales to the survivors — legal because results are bit-identical
//     across worker counts. Workers self-terminate when the coordinator
//     dies; Interrupt stops a run gracefully at an iteration boundary with
//     the driver's forced final checkpoint. The chaosnet subpackage is
//     the deterministic network-fault harness (sever/corrupt/truncate/drop/
//     delay exactly the Nth frame of a rank+direction) behind the
//     kill-at-every-frame sweep test and alstrain's -net-chaos flag.
//
// Shard replicas stay in sync with training through the existing checkpoint
// watcher: the coordinator writes ordinary checkpoints, every replica
// watches the same directory, and a WatcherConfig.Transform hook slices the
// loaded model down to the replica's item range before the hot-swap.
package shard

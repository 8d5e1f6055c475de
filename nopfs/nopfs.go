// Package nopfs is a Go implementation of NoPFS, the clairvoyant
// prefetching I/O middleware for distributed machine-learning training
// ("Clairvoyant Prefetching for Distributed Machine Learning I/O",
// SC 2021).
//
// Training with mini-batch SGD reads every sample exactly once per epoch in
// an order that is a pure function of a PRNG seed. Given that seed, NoPFS
// computes the entire access stream of every worker in advance and uses it
// to (1) prefetch samples into a staging buffer in exact consumption order,
// (2) place each worker's most frequently accessed samples in its fastest
// local storage class, and (3) serve cache misses from whichever location —
// local storage, a peer's cache, or the parallel filesystem — the
// performance model predicts is fastest.
//
// The package exposes the paper's iterator-style interface (Fig. 7): create
// a Job per worker and range over Samples (or call Get / GetBatch) until the
// run is exhausted. RunCluster runs an N-worker training job in one process
// for experimentation; the same Job runs over real TCP sockets by selecting
// the "tcp" fabric (WithFabric).
//
// The public surface is context-first and built from open extension points:
//
//   - Fabric — the communication substrate, selected by registry name
//     (chan and TCP built in, RegisterFabric for custom transports);
//   - StorageBackend — the byte store behind each storage class, selected
//     per class by kind (mem and dir built in, RegisterBackend for custom
//     stores);
//   - Option — functional options layered over the Options struct
//     (WithSeed, WithFabric, WithClasses, ...);
//   - Job.Samples — a range-over-func sample stream, and Job.GetBatch for
//     per-worker minibatch pulls.
//
// Every blocking call accepts a context.Context; canceling it tears the
// cluster down in bounded time with no leaked goroutines.
package nopfs

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/resilience"
)

// ChaosProfile declares a deterministic fault/degradation scenario for a
// run: straggler ranks, storage-tier degradation, fabric
// latency/jitter/transient failures, and node crashes (see internal/chaos).
// A crashed rank delivers its pre-crash prefix and then actually goes away
// (its fabric endpoint closes); its remaining plan rounds are redistributed
// round-robin across the survivors by the same rule the simulator uses, so
// sim-vs-live stall under one profile converges.
type ChaosProfile = chaos.Profile

// ResiliencePolicy bounds the live fetch path's fault handling: bounded
// seed-jittered retry/backoff for transient fabric failures, per-call
// deadlines, and a per-peer circuit breaker that demotes an unreachable
// peer to the PFS and re-probes it after a cooldown (see
// internal/resilience). The policy is a decorator on each rank's fabric
// endpoint, and the zero policy installs none: a failed remote fetch falls
// back to the PFS at once. DefaultResilience returns the tuned preset.
type ResiliencePolicy = resilience.Policy

// DefaultResilience returns the tuned resilience preset (the "default"
// spec of ParseResilience).
func DefaultResilience() ResiliencePolicy { return resilience.Default() }

// ParseResilience parses the -resilience flag grammar ("none", "default",
// or "retries:3,backoff:1ms..32ms,jitter:0.25,timeout:250ms,breaker:3@50ms"
// — see internal/resilience.ParsePolicy).
func ParseResilience(spec string) (ResiliencePolicy, error) {
	return resilience.ParsePolicy(spec)
}

// Dataset is the data source interface a Job ingests. Reading a sample by
// id is the only byte-producing operation; the middleware never requires
// directory listings or mutation. internal/dataset.Synthetic and FSDataset
// both satisfy it.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Size returns the byte size of sample id.
	Size(id int) int64
	// Label returns the class label of sample id.
	Label(id int) int
	// ReadSample returns the payload of sample id (a PFS read).
	ReadSample(id int) ([]byte, error)
}

// Class configures one local storage class, fastest first.
type Class struct {
	// Name labels the class in stats ("ram", "ssd").
	Name string
	// CapacityBytes bounds what the class may cache.
	CapacityBytes int64
	// Dir, when non-empty, makes the class filesystem-backed at that
	// path; otherwise it is an in-memory store.
	Dir string
	// Backend selects the storage-backend kind from the registry
	// (BackendMemory, BackendDir, or a custom RegisterBackend kind). Empty
	// means: BackendDir when Dir is set, else BackendMemory.
	Backend string
	// ReadMBps / WriteMBps emulate the class's aggregate bandwidth
	// (0 = unlimited). Useful for experiments on laptop hardware.
	ReadMBps, WriteMBps float64
	// Threads is the class's prefetcher thread count p_j (default 1).
	Threads int
}

// Options configures a training job.
type Options struct {
	// Seed generates every epoch's shuffle — the clairvoyance input. All
	// workers must use the same seed; Job verifies this with an allgather
	// of plan digests at startup.
	Seed uint64
	// Epochs is the number of passes over the dataset.
	Epochs int
	// BatchPerWorker is the per-worker mini-batch size.
	BatchPerWorker int
	// DropLast drops the trailing partial global batch each epoch.
	DropLast bool

	// StagingBytes is the staging-buffer budget (default 64 MiB).
	StagingBytes int64
	// StagingThreads is p0, the staging prefetcher width (default 4).
	StagingThreads int
	// Classes are the local cache levels, fastest first (may be empty:
	// the job still prefetches into the staging buffer clairvoyantly).
	Classes []Class

	// PFSAggregateMBps emulates the shared filesystem's aggregate random
	// read bandwidth across all workers (0 = unlimited).
	PFSAggregateMBps float64
	// InterconnectMBps emulates the fabric bandwidth (0 = unlimited).
	InterconnectMBps float64

	// VerifySamples CRC-checks every delivered payload against the
	// dataset's integrity envelope (internal/dataset format).
	VerifySamples bool

	// Metrics, when non-nil, receives runtime observability series (per-tier
	// hits/misses, fetch latency, stall time, limiter waits, fabric calls;
	// see nopfs/metrics.go for the full list). Nil runs the exact
	// uninstrumented code path.
	Metrics *MetricsRegistry
	// TraceFetches, when non-nil, receives one line per staged fetch (rank,
	// stream position, sample, epoch, source, bytes, duration). Writes are
	// serialised across ranks; the writer itself need not be thread-safe.
	// Without Metrics, on the TCP fabric, the duration of a staging
	// window's one exchange with a holder is on the holder's first
	// position's line, and its later positions in the window read ≈ 0.
	TraceFetches io.Writer

	// Chaos is the fault/degradation scenario injected into the run: a
	// fault-wrapping fabric decorator (latency, jitter, transient fetch
	// failures), storage.Limiter throttles on degraded tiers, paced
	// straggler ranks, and enacted node crashes (the crashed rank delivers
	// its pre-crash prefix, closes its endpoint, and survivors absorb its
	// remaining plan rounds — see ChaosProfile). The zero value injects
	// nothing — runs are identical to a chaos-free build.
	Chaos ChaosProfile

	// Access is the workload access-pattern spec ("" = the classic uniform
	// per-epoch shuffle; see the -access grammar and presets in
	// internal/access.ParseAccessSpec). All workers must agree on it: any
	// non-uniform spec is folded into the plan digest the startup allgather
	// verifies. An elastic membership schedule
	// ("elastic:join=1@1,leave=2@2") re-partitions the plan at epoch
	// boundaries — a rank delivers nothing outside its membership window,
	// but its endpoint stays open and its cached bytes stay servable
	// (unlike a crash). Elastic schedules combine with crash chaos profiles:
	// survivors absorb a crashed rank's plan rounds epoch by epoch, however
	// unequal the epochs.
	Access string

	// Resilience bounds the fetch path's handling of fabric failures:
	// retry/backoff, per-call deadlines, and per-peer circuit breaking
	// (see ResiliencePolicy). The zero value disables resilience — every
	// fabric error falls back to the PFS at once; under any policy the
	// job's own cancellation aborts rather than masking as a miss.
	Resilience ResiliencePolicy

	// Fabric selects the cluster fabric by registry name (FabricChan,
	// FabricTCP, or a custom RegisterFabric name). Empty means FabricChan.
	Fabric string

	// prestage, set only by in-package tests, makes Start run the rank's
	// class fills to the end and then pass a barrier before any staging
	// prefetcher starts (see Job.Start), so no fetch races a fill.
	prestage bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.StagingBytes <= 0 {
		o.StagingBytes = 64 << 20
	}
	if o.StagingThreads <= 0 {
		o.StagingThreads = 4
	}
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	if o.BatchPerWorker <= 0 {
		o.BatchPerWorker = 1
	}
	for i := range o.Classes {
		if o.Classes[i].Threads <= 0 {
			o.Classes[i].Threads = 1
		}
	}
	return o
}

// Validate reports whether the options are usable for the dataset and
// worker count.
func (o Options) Validate(ds Dataset, workers int) error {
	switch {
	case ds == nil:
		return errors.New("nopfs: nil dataset")
	case ds.Len() == 0:
		return errors.New("nopfs: empty dataset")
	case workers <= 0:
		return errors.New("nopfs: need at least one worker")
	case workers*o.BatchPerWorker > ds.Len():
		return fmt.Errorf("nopfs: global batch %d exceeds dataset size %d",
			workers*o.BatchPerWorker, ds.Len())
	case len(o.Classes) > cachepolicy.MaxTagClasses:
		// The fetch path reads the placement's source tags, one nibble per side.
		return fmt.Errorf("nopfs: node has %d storage classes, at most %d are supported", len(o.Classes), cachepolicy.MaxTagClasses)
	}
	for _, c := range o.Classes {
		if c.CapacityBytes <= 0 {
			return fmt.Errorf("nopfs: class %q needs positive capacity", c.Name)
		}
		if _, err := BackendByKind(backendKind(c)); err != nil {
			return fmt.Errorf("nopfs: class %q: %w", c.Name, err)
		}
	}
	if err := o.Chaos.Validate(); err != nil {
		return err
	}
	if _, err := o.Chaos.Compile(o.Seed).Survivor(workers); err != nil {
		return err
	}
	if _, err := access.ParseAccessSpec(o.Access); err != nil {
		return fmt.Errorf("nopfs: %w", err)
	}
	if err := o.Resilience.Validate(); err != nil {
		return err
	}
	if _, err := o.fabric(); err != nil {
		return err
	}
	return nil
}

// Sample is one training sample delivered by Job.Get.
type Sample struct {
	// ID is the dataset sample index.
	ID int
	// Label is the dataset-provided class label.
	Label int
	// Data is the sample payload. It is read-only — the bytes may be a
	// storage class's cached copy, shared with peers — and valid until the
	// consumer's next Get, GetBatch or Samples step, which may reuse the
	// buffer for a later sample. Copy it to keep it longer.
	Data []byte
	// Epoch and Iteration locate the sample in the training schedule.
	Epoch, Iteration int
	// Source reports where the staging prefetcher found the sample.
	Source Source
}

// Source identifies where a staged sample was fetched from.
type Source int

// Fetch sources, mirroring the paper's Fig. 12 categories.
const (
	// SourcePFS: read from the shared filesystem (the Dataset).
	SourcePFS Source = iota
	// SourceRemote: served from a peer worker's cache.
	SourceRemote
	// SourceLocal: served from this worker's own storage classes.
	SourceLocal
)

// String returns the stats label.
func (s Source) String() string {
	switch s {
	case SourcePFS:
		return "pfs"
	case SourceRemote:
		return "remote"
	case SourceLocal:
		return "local"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Stats summarises one worker's run.
type Stats struct {
	Rank int
	// Fetches counts staging-buffer fetches by source. Fetches[SourcePFS]
	// is not the rank's filesystem load: class-fill reads are not staged
	// fetches (see PFSReads).
	Fetches map[Source]int64
	// PFSReads counts the filesystem reads this rank completed: staged
	// fetches and class-prefetcher fills alike. The staging path's share is
	// Fetches[SourcePFS]; a read that teardown cancels is not counted.
	PFSReads int64
	// PFSCoalesced counts fetches of an assigned sample that missed its
	// class but were served by another prefetcher's in-flight fetch of it,
	// or by the class on the flight's re-check (delivered as SourceLocal).
	PFSCoalesced int64
	// RemoteFalsePositives counts remote fetches the progress heuristic
	// predicted would hit but missed (each fell back to the PFS).
	RemoteFalsePositives int64
	// StallSeconds is the total time Get waited on the staging buffer.
	StallSeconds float64
	// Delivered is the number of samples handed to the trainer.
	Delivered int64
	// CachedBytes is what this worker's classes held at shutdown.
	CachedBytes int64
	// Retries counts remote-fetch attempts retried under the resilience
	// policy (0 with the zero policy).
	Retries int64
	// RedistributedRounds is how many plan rounds this rank absorbed from
	// crashed peers (0 without a crash profile).
	RedistributedRounds int64
}

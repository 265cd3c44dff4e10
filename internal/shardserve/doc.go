// Package shardserve scales the serving layer horizontally: a
// coordinator consistent-hashes each query's semantics-aware
// fingerprint (FNV-64a over the normalized SQL plus the catalog
// fingerprint — the same key the plan cache uses, so routing preserves
// cache affinity; the normalized text comes from a bounded query.Memo,
// so a repeated text is routed without a parse) onto a fixed slot
// space, assigns contiguous slot ranges to engine shards, and keeps
// every shard serving the same champion model version by fanning the
// coordinator registry's promotions out to per-shard learn.Replica
// copies.
//
// Each shard is a primary/replica pair of serving backends. A
// sentinel-style health loop — driven by an explicit Tick, never the
// wall clock — composes with internal/fault crash plans: plan node i's
// outage windows take down shard i's primary, phase-jittered sentinel
// heartbeats accumulate misses, a quorum of down-votes promotes the
// replica and bumps the cluster epoch, and the demoted primary rejoins
// as a standby when its window ends. Every transition is appended to
// an event log that is a pure function of (plan, sentinel config, tick
// count), so two replays of the same seed produce byte-identical
// failover histories — the property the race-enabled stress suite
// pins.
//
// The package deliberately owns no sockets: internal/net frontends
// plug in through the Route/Info accessors (serving -MOVED redirects
// and the CLUSTER verb), and the saqp facade wires real engines,
// replicas, and listeners together.
package shardserve

// Package replica is the multi-process scale-out layer of the CAR-CS
// service: WAL-shipping replication plus fault-tolerant read routing.
//
// The design rides entirely on the durability layer. Every committed
// mutation is already a CRC-framed, sequence-stamped record in the leader's
// write-ahead log; replication ships exactly those frames over HTTP:
//
//   - The leader's Hub serves GET /api/replication/checkpoint (bootstrap:
//     the latest checkpoint payload plus the sequence it covers) and
//     GET /api/replication/wal?from=SEQ (a long-poll, chunked tail of
//     framed records with Seq > from, fed live from the append path).
//   - A Follower bootstraps from the checkpoint (core.RestoreWorkspaces),
//     applies the tail through the same path recovery replays the local
//     log with (core.ApplyRecordsWorkspaces), and publishes
//     snapshot-isolated views exactly like a local commit — reads on a
//     follower are the same lock-free reads as on the leader, just bounded
//     by the follower's applied sequence. Followers reject writes with 503
//     and a Leader header, and reconnect with jittered exponential backoff,
//     resuming idempotently from their last applied sequence.
//   - A Router fans reads out across followers (leader fallback), health-
//     checking members via /api/health/ready, ejecting dead or lagging
//     backends behind per-backend circuit breakers, and retrying a failed
//     read on the next backend so one dying replica never surfaces as a
//     read 5xx.
//
// Sequence numbers, not generations, are the cross-process coordinate:
// a node's state is fully determined by the last journal sequence folded
// into it, while view generations are process-local (they restart from the
// checkpoint on every boot). The follower therefore reports applied_seq,
// and the router's staleness budget compares sequences.
package replica

import (
	"net/http"
	"time"
)

// Wire protocol headers and defaults.
const (
	// HeaderLeaderSeq carries the leader's latest journaled sequence on
	// WAL stream responses, letting followers measure their lag.
	HeaderLeaderSeq = "CARCS-Leader-Seq"
	// HeaderCheckpointSeq carries the sequence a served checkpoint covers
	// (on bootstrap responses, and on 410s telling a follower its cursor
	// predates the leader's retention horizon).
	HeaderCheckpointSeq = "CARCS-Checkpoint-Seq"
	// HeaderAppliedSeq is set by followers on read responses: the journal
	// sequence their answer reflects — the staleness bound.
	HeaderAppliedSeq = "CARCS-Applied-Seq"
	// HeaderRoute is set by the router: which backend served the response.
	HeaderRoute = "CARCS-Route"
	// HeaderEpoch carries the leadership epoch: the term a served
	// checkpoint or WAL stream was written under, and — stamped by
	// followers on reads and by the router on proxied responses — the term
	// a node's state reflects.
	HeaderEpoch = "CARCS-Epoch"
	// WALContentType marks a stream of CRC-framed journal records.
	WALContentType = "application/x-carcs-wal"

	// DefaultPollWait is how long a WAL stream runs before the leader
	// closes it and the follower reconnects; MaxPollWait caps what a
	// client may request. Bounded streams keep dead followers from
	// pinning connections and give lag a natural heartbeat.
	DefaultPollWait = 20 * time.Second
	MaxPollWait     = 45 * time.Second
)

// Status describes a node's replication role for /api/health.
type Status struct {
	// Role is "leader", "follower", or "fenced" (a deposed leader that has
	// seen a higher epoch and refuses writes).
	Role string `json:"role"`
	// Epoch is the leadership term this node's state reflects.
	Epoch uint64 `json:"epoch"`
	// Leader is the leader URL a follower replicates from — or, on a
	// fenced node, the leader that deposed it.
	Leader string `json:"leader,omitempty"`
	// AppliedSeq is the last journal sequence applied locally (follower).
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// LeaderSeq is the leader's latest sequence: its own journal horizon
	// on a leader, the last value observed from the stream on a follower.
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	// Connected reports whether a follower currently holds a live stream.
	Connected bool `json:"connected"`
	// Reconnects counts stream re-establishments (follower).
	Reconnects uint64 `json:"reconnects,omitempty"`
	// Rebootstraps counts in-process re-bootstraps after the follower fell
	// behind the leader's retention horizon (follower).
	Rebootstraps uint64 `json:"rebootstraps,omitempty"`
	// Streams counts WAL stream requests served (leader).
	Streams uint64 `json:"streams,omitempty"`
	// ActiveStreams is the number of followers currently tailing (leader).
	ActiveStreams int64 `json:"active_streams,omitempty"`
}

// defaultClient is the HTTP client for replication control requests
// (bootstrap, probes). Stream requests use per-request contexts instead of
// a client timeout, so the shared client must not impose one.
var defaultClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost:   4,
	ResponseHeaderTimeout: 15 * time.Second,
}}

// Package fleet turns a set of affinityd processes into one logical
// campaign executor. One daemon runs as the coordinator: it owns the
// job queue, the two-tier result cache (memory LRU + disk store), and
// the deterministic Merge. Any number of daemons join as workers: they
// register with the coordinator, heartbeat, and execute individual
// campaign cells on demand.
//
// The unit of distribution is the cell (internal/experiments.Cells):
// content-addressed, individually cacheable, and deterministic, so a
// cell can execute on any worker — or twice on two workers — and the
// bytes are identical. That property carries the whole design:
//
//   - Dispatch is at-least-once. A cell may be retried after a worker
//     failure and hedged when a worker straggles; the first valid
//     result wins and duplicates are discarded by cell key. Because
//     cells are deterministic, duplicates are byte-identical and
//     discarding is safe. A per-campaign budget (Budget) bounds the
//     total retries+hedges so a pathological cell cannot hedge forever:
//     past the budget the cell falls back to local execution.
//   - The wire format is a plan coordinate, not code: the coordinator
//     sends (kind, normalized params, cell index, cell id, cache key)
//     and the worker recomputes the plan locally. Workers verify that
//     their recomputed cell id and cache key match the request, and
//     registration rejects engine-version skew, so a mixed-version
//     fleet can never silently serve wrong bytes.
//   - Results flow back into the coordinator's caches, so the fleet
//     shares one logical cache. Peer cache fill closes the loop in both
//     directions: a worker asks the coordinator's store
//     (GET /v1/fleet/cells/{key}) before executing, and the coordinator
//     relays its own misses to the other workers' memory+disk tiers —
//     so work any fleet member ever finished is never repeated
//     anywhere, with exec-cost metadata riding along so eviction
//     currency stays uniform fleet-wide.
//
// The wire protocol is part of the /v1 API contract (DESIGN.md §7):
// every response body carries "api_version", every non-2xx response is
// the standard error envelope (internal/api), X-Request-Id propagates
// coordinator→worker and is echoed back, and transport is authenticated
// by a shared-secret HMAC when a fleet token is configured (auth.go).
//
// Failure model: workers are soft state. They expire when heartbeats
// stop, are dropped immediately on connection failure, and re-register
// themselves; the coordinator falls back to local execution when no
// worker can serve a cell, so a fleet of zero workers degrades to
// exactly the single-process daemon. Placement over the live workers is
// capacity-aware (placement.go): a scorer over each worker's inflight
// load, RTT, and decaying failure penalty, so a briefly slow worker is
// deprioritized — not dropped — and recovers as its penalty decays.
package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
)

// Wire paths, mounted on both daemons' ServeMux by RegisterHandlers.
// The fleet surface lives in the same versioned namespace as the rest
// of the /v1 API.
const (
	// PathRegister is the worker registration/heartbeat endpoint
	// (coordinator side).
	PathRegister = "/v1/fleet/register"
	// PathExecute is the cell execution endpoint (worker side).
	PathExecute = "/v1/fleet/execute"
	// PathCells is the cell-read prefix, mounted on BOTH sides:
	// GET PathCells + key returns the cached cell body or a 404
	// envelope. On the coordinator it serves its two tiers (relaying a
	// miss to the other workers); on a worker it serves the worker's
	// own memory+disk tiers, which is what makes peer fill
	// bidirectional.
	PathCells = "/v1/fleet/cells/"
)

// RegisterRequest is a worker's registration POST body; re-POSTed every
// heartbeat interval (registration and heartbeat are the same message,
// so a coordinator restart loses no state it cannot rebuild within one
// interval).
type RegisterRequest struct {
	// URL is the worker's advertised base URL ("http://host:port").
	// It is the worker's identity: re-registering the same URL updates
	// the existing entry.
	URL string `json:"url"`
	// Capacity bounds the cells the coordinator dispatches to this
	// worker concurrently (<=0 selects the coordinator's default).
	Capacity int `json:"capacity,omitempty"`
	// EngineVersion is the worker's version.Engine. The coordinator
	// rejects a mismatch with 409: cache keys embed the engine version,
	// so a skewed worker could never produce usable results.
	EngineVersion string `json:"engine_version"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	APIVersion string `json:"api_version"`
	OK         bool   `json:"ok"`
	// ID is the worker's stable identity in the /v1/workers surface,
	// derived from its advertised URL.
	ID string `json:"id"`
	// HeartbeatSec is the interval the coordinator wants heartbeats at
	// (a third of its worker TTL).
	HeartbeatSec float64 `json:"heartbeat_sec"`
}

// ExecuteRequest dispatches one cell: a coordinate into the plan that
// experiments.Cells derives from (Kind, Params), plus the identity the
// worker must reproduce.
type ExecuteRequest struct {
	Kind string `json:"kind"`
	// Params are the job's normalized campaign params; the worker
	// recomputes the cell plan from them, so the wire carries no code
	// and no partial state.
	Params experiments.CampaignParams `json:"params"`
	// Index is the cell's position in the plan.
	Index int `json:"index"`
	// CellID is the expected plan.Cells[Index].ID; a mismatch means the
	// two sides built different plans and the worker must refuse.
	CellID string `json:"cell_id"`
	// Key is the expected cell cache key (content address), verified the
	// same way.
	Key string `json:"key"`
	// RequestID is the submitting request's X-Request-Id, carried as a
	// header (never in the signed body) and echoed back by the worker.
	RequestID string `json:"-"`
}

// ExecuteResponse is a worker's reply: the cell's canonical JSON body
// plus provenance.
type ExecuteResponse struct {
	APIVersion string `json:"api_version"`
	CellID     string `json:"cell_id"`
	Key        string `json:"key"`
	// Worker is the responding worker's advertised URL.
	Worker string `json:"worker"`
	// Engine is the cell's resolved execution tier ("sim"/"analytic").
	Engine string `json:"engine,omitempty"`
	// Source tells where the worker got the bytes: "executed",
	// "cache" (worker memory), "disk" (worker store), or "peer"
	// (coordinator store via cache fill).
	Source string `json:"source"`
	// ExecNs is the execution wall time when Source == "executed", else
	// the cost metadata that rode along with the cached bytes (0 if
	// unknown). It becomes the eviction currency in the coordinator's
	// caches.
	ExecNs uint64 `json:"exec_ns,omitempty"`
	// Body is the cell's canonical JSON partial, verbatim.
	Body json.RawMessage `json:"body"`
	// Placement attributes the coordinator's placement decision for the
	// winning attempt ("score=… load=… rtt_ms=… penalty=…"); filled by
	// the coordinator after the race resolves, never by the worker.
	Placement string `json:"placement,omitempty"`
}

// execCostHeader carries the exec-cost metadata on peer cache-fill
// responses, which return the raw body (not an envelope).
const execCostHeader = "X-Exec-Cost-Ns"

// peerHeader names the requesting fleet member on a cell-read, so the
// coordinator's relay never asks the requester for the bytes it just
// reported missing.
const peerHeader = "X-Fleet-Peer"

// serveCell writes a raw cell body with its exec-cost metadata: the
// answer side of GET /v1/fleet/cells/{key}.
func serveCell(w http.ResponseWriter, body []byte, costNs uint64) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(execCostHeader, strconv.FormatUint(costNs, 10))
	w.Write(body)
}

// fetchCell is the asking side: it GETs base's cell-read endpoint for
// key, signed with auth, and returns the body with its exec-cost
// metadata. Both directions of peer fill use it — a worker asking the
// coordinator, the coordinator relaying to workers — each bounding it
// with its own ctx and adding its own headers (hdr may be nil). Any
// failure, non-200 or non-JSON body is a miss.
func fetchCell(ctx context.Context, client *http.Client, auth *authenticator, base, key string, hdr http.Header) ([]byte, uint64, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathCells+url.PathEscape(key), nil)
	if err != nil {
		return nil, 0, false
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	auth.sign(req, nil)
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil || len(body) == 0 || !json.Valid(body) {
		return nil, 0, false
	}
	costNs, _ := strconv.ParseUint(resp.Header.Get(execCostHeader), 10, 64)
	return body, costNs, true
}

// Budget is a per-campaign cap on dispatch overshoot: every retry and
// hedge beyond a cell's first attempt spends one unit. When the budget
// runs dry, in-flight attempts still resolve but nothing new launches —
// the cell falls back to local execution — and Exhausted latches so the
// job view can report budget_exhausted. First attempts are never
// charged: the budget bounds pathology (a cell hedging forever across
// the fleet), not normal dispatch.
type Budget struct {
	remaining atomic.Int64
	unlimited bool
	exhausted atomic.Bool
}

// NewBudget builds a Budget allowing n retries+hedges per campaign;
// n <= 0 means unlimited.
func NewBudget(n int) *Budget {
	b := &Budget{unlimited: n <= 0}
	b.remaining.Store(int64(n))
	return b
}

// TrySpend consumes one unit, reporting false (and latching Exhausted)
// when none remain. A nil Budget is unlimited.
func (b *Budget) TrySpend() bool {
	if b == nil || b.unlimited {
		return true
	}
	if b.remaining.Add(-1) < 0 {
		b.exhausted.Store(true)
		return false
	}
	return true
}

// Exhausted reports whether any spend was ever refused.
func (b *Budget) Exhausted() bool { return b != nil && b.exhausted.Load() }

// writeFleetJSON writes a fleet response body. Unlike the client-facing
// /v1 endpoints, fleet bodies are compact, not indented: an
// ExecuteResponse embeds the cell's canonical bytes as a RawMessage,
// and an indenting encoder would re-format them — breaking the
// byte-identity the whole dispatch design rests on.
func writeFleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeFleetError writes the standard /v1 error envelope.
func writeFleetError(w http.ResponseWriter, status int, code, field, msg string) {
	api.WriteError(w, status, code, field, msg)
}

// writeAuthError maps an authenticator verdict to its 401 envelope.
func writeAuthError(w http.ResponseWriter, err error) {
	writeFleetError(w, http.StatusUnauthorized, "unauthenticated", "", err.Error())
}

// defaultClient is the HTTP client both sides use when the caller does
// not supply one: keep-alive, no global timeout (dispatch attempts are
// bounded by hedging and context cancellation, heartbeats by their own
// per-request contexts).
func defaultClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
}

package measure

import (
	"strconv"
	"sync"

	"repro/internal/memtrace"
)

// A Table 1 campaign's cells each replay the measured stream of their own
// application and the intervening streams of every application, but a
// stream is a pure function of (pattern, address base, seed, length): a
// nine-cell campaign needs six distinct streams, not thirty-six. Streams
// are immutable, so they are memoized process-wide and shared read-only
// across cells and workers, the way internal/workload memoizes graphs.
//
// The memo is bounded by retained bytes and evicts oldest first. Eviction
// only costs a rebuild: an entry depends on nothing but its key, so a cell
// produces the same bytes whether its streams came from the memo, from a
// concurrent cell's build, or from a fresh NewStream.

// streamMemoMax caps the bytes of address prefix the memo retains.
const streamMemoMax = 8 << 20

// campaignStreams is the number of distinct streams a fast Table 1
// campaign replays: a measured and an intervening stream per application.
// The memo retains only streams of at most streamMemoMax/campaignStreams
// bytes, so that a whole campaign's streams fit in it together. Streams
// take 8 bytes per reference, one reference per 5 µs gap, so this holds
// for budgets up to about 0.87 s. A longer stream (the 4 s fast default,
// paper scale) is built per call and never retained: retaining it would
// evict the rest of its own campaign.
const campaignStreams = 6

// streamKey identifies one stream: the whole pattern (two patterns may
// share a Name), the address base, the seed and the length.
type streamKey struct {
	pattern string // patternKey of the pattern
	base    uint64
	seed    uint64
	n       int
}

// patternKey encodes every field of p that decides its reference stream.
func patternKey(p memtrace.Pattern) string {
	b := strconv.AppendQuote(nil, p.Name)
	b = strconv.AppendInt(append(b, ' '), int64(p.Gap), 10)
	b = strconv.AppendInt(append(b, ' '), int64(p.PhaseEvery), 10)
	for _, c := range p.Components {
		b = strconv.AppendInt(append(b, ' '), int64(c.Lines), 10)
		b = strconv.AppendInt(append(b, '/'), int64(c.Period), 10)
		b = strconv.AppendBool(append(b, '/'), c.Permuted)
	}
	return string(b)
}

// streamEntry is one memoized stream, built exactly once by whichever
// caller gets there first.
type streamEntry struct {
	once  sync.Once
	s     *Stream
	bytes int
}

// streamMemo is a bounded, concurrency-safe map from streamKey to Stream.
type streamMemo struct {
	max      int // retained-bytes cap
	entryMax int // largest stream retained, max/campaignStreams

	mu       sync.Mutex
	m        map[streamKey]*streamEntry
	order    []streamKey // insertion order, oldest first
	retained int         // sum of bytes over m
}

func newStreamMemo(max int) *streamMemo {
	return &streamMemo{max: max, entryMax: max / campaignStreams, m: make(map[streamKey]*streamEntry)}
}

// streams is the process-wide memo behind measuredStream and
// interveningStream.
var streams = newStreamMemo(streamMemoMax)

// get returns the stream of n references of pat at base under seed,
// building it on first use. Concurrent callers with equal keys share one
// build. A stream larger than entryMax is built for the call alone.
func (sm *streamMemo) get(pat memtrace.Pattern, base, seed uint64, n int) *Stream {
	bytes := 8 * n
	if bytes > sm.entryMax {
		return NewStream(pat, base, seed, n)
	}
	key := streamKey{pattern: patternKey(pat), base: base, seed: seed, n: n}
	sm.mu.Lock()
	e, ok := sm.m[key]
	if !ok {
		e = &streamEntry{bytes: bytes}
		sm.m[key] = e
		sm.order = append(sm.order, key)
		sm.retained += bytes
		for sm.retained > sm.max {
			old := sm.order[0]
			sm.order = sm.order[1:]
			sm.retained -= sm.m[old].bytes
			delete(sm.m, old)
		}
	}
	sm.mu.Unlock()
	// Built outside the lock. An entry evicted mid-build still completes
	// for the callers already holding it.
	e.once.Do(func() { e.s = NewStream(pat, base, seed, n) })
	return e.s
}

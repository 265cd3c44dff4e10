package query

import "sync"

// Memo is a bounded, goroutine-safe cache from raw SQL text to its
// normalized rendering (Parse followed by String). It sits in front of
// the request-path parse sites — the serving engine's plan-cache probe
// and the shard coordinator's routing — so a repeated text skips the
// lexer, the parser and the renderer. The memo is a pure function
// cache: a hit returns exactly what a fresh parse and render would.
//
// Eviction keeps two generations, cur and prev, of at most capacity
// entries each. An insertion into a full cur retires it to prev (the
// old prev is dropped), and a hit in prev is promoted back into cur, so
// a text in steady use survives every rotation while one-off texts age
// out within two generations. Parse errors are never memoized.
type Memo struct {
	mu     sync.Mutex
	cap    int
	suffix string
	cur    map[string]memoEntry
	prev   map[string]memoEntry

	hits, misses uint64
}

// memoEntry is one memoized normalization: the normalized text and the
// text followed by the memo's key suffix.
type memoEntry struct {
	norm, key string
}

// NewMemo returns a memo holding up to capacity entries per generation
// (minimum 1). keySuffix is appended once per distinct text to form the
// key Normalize returns alongside the normalized text, so a caller that
// keys a cache on norm + suffix builds that key once per text rather
// than once per request; pass "" when the normalized text is the key.
func NewMemo(capacity int, keySuffix string) *Memo {
	if capacity < 1 {
		capacity = 1
	}
	return &Memo{cap: capacity, suffix: keySuffix, cur: make(map[string]memoEntry, capacity)}
}

// Normalize returns sql's normalized text and that text followed by
// the memo's key suffix. On a miss it parses and renders sql and also
// returns the fresh AST, which the caller owns (Resolve mutates it). A
// hit returns a nil AST: no parsed query is ever shared between
// callers, so a caller that needs one after a hit must parse again.
// A parse error is returned as is and nothing is memoized.
func (m *Memo) Normalize(sql string) (norm, key string, q *Query, err error) {
	if norm, key, ok := m.lookup(sql); ok {
		return norm, key, nil, nil
	}
	q, err = Parse(sql)
	if err != nil {
		return "", "", nil, err
	}
	norm = q.String()
	key = norm + m.suffix
	m.mu.Lock()
	m.misses++
	m.insert(sql, memoEntry{norm: norm, key: key})
	m.mu.Unlock()
	return norm, key, q, nil
}

// lookup is the memo's hit path, taken by every repeated request: a
// map probe in cur, then in prev with promotion into cur. A promotion
// that fills cur rotates the generations, which allocates one map per
// capacity insertions; a hit in cur must not allocate.
//
//saqp:hotpath
func (m *Memo) lookup(sql string) (norm, key string, ok bool) {
	m.mu.Lock()
	e, ok := m.cur[sql]
	if !ok {
		if e, ok = m.prev[sql]; ok {
			m.insert(sql, e)
		}
	}
	if ok {
		m.hits++
	}
	m.mu.Unlock()
	return e.norm, e.key, ok
}

// insert adds one entry to cur, first retiring a full cur to prev.
// Callers must hold m.mu.
func (m *Memo) insert(sql string, e memoEntry) {
	if len(m.cur) >= m.cap {
		m.prev = m.cur
		m.cur = make(map[string]memoEntry, m.cap) //lint:allow saqpvet/allocfree generation rotation, once per capacity insertions
	}
	m.cur[sql] = e
}

// Counters returns the memo's lifetime hit and miss counts. Every miss
// is one Parse of a text that parsed; a hit parses nothing.
func (m *Memo) Counters() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

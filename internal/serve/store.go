package serve

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"extscc"
)

// errClosed is returned to lookups that race a server shutdown.
var errClosed = errors.New("serve: server is shutting down")

// labelStore coalesces concurrent point lookups into batched sweeps over the
// label file, group-commit style: lookups join a queue, and a single
// dispatcher goroutine takes everything queued (up to the batch cap) and
// resolves its union with one Result.LookupLabels call.  There is no timer:
// an idle dispatcher answers a lone request at once, and under load the
// requests that queue while one sweep runs form the next.  Each node of a
// sweep costs one key probe of the label file through the Result's held
// reader — a footer search plus at most one frame decode.
type labelStore struct {
	lookupLabels func([]extscc.NodeID) (map[extscc.NodeID]uint32, error)
	maxBatch     int

	mu     sync.Mutex
	queue  []*lookupReq // requests waiting for a sweep, oldest first
	closed bool
	wake   chan struct{} // holds a token while the dispatcher has news to look at
	wg     sync.WaitGroup

	batches int64 // sweeps performed
	batched int64 // point lookups resolved by those sweeps
}

type lookupReq struct {
	nodes []extscc.NodeID
	out   map[extscc.NodeID]uint32
	err   error
	ready chan struct{}
}

func newLabelStore(lookupLabels func([]extscc.NodeID) (map[extscc.NodeID]uint32, error), maxBatch int) *labelStore {
	s := &labelStore{lookupLabels: lookupLabels, maxBatch: maxBatch, wake: make(chan struct{}, 1)}
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// lookup resolves the labels of nodes, blocking until the sweep that takes
// the request completes.  The returned map has an entry per node present in
// the labelling.
func (s *labelStore) lookup(nodes []extscc.NodeID) (map[extscc.NodeID]uint32, error) {
	req := &lookupReq{nodes: nodes, ready: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	s.queue = append(s.queue, req)
	s.mu.Unlock()
	s.notify()
	<-req.ready
	return req.out, req.err
}

// notify wakes the dispatcher, unless a wake-up is already pending.
func (s *labelStore) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch is the batching loop: on each wake-up, sweep the queue from its
// oldest request, at most maxBatch nodes a sweep (a single larger request
// still goes whole), until it is empty.  It returns once close has been
// called and the queue is empty.
func (s *labelStore) dispatch() {
	defer s.wg.Done()
	for range s.wake {
		for {
			s.mu.Lock()
			n, size := 0, 0
			for n < len(s.queue) && size < s.maxBatch {
				size += len(s.queue[n].nodes)
				n++
			}
			batch := s.queue[:n]
			s.queue = append([]*lookupReq(nil), s.queue[n:]...)
			closed := s.closed
			s.mu.Unlock()
			if n == 0 {
				if closed {
					return
				}
				break
			}
			s.flush(batch)
		}
	}
}

// flush resolves one gathered batch and wakes its requesters.
func (s *labelStore) flush(batch []*lookupReq) {
	union := make([]extscc.NodeID, 0, len(batch)*2)
	for _, req := range batch {
		union = append(union, req.nodes...)
	}
	resolved, err := s.lookupLabels(union)
	atomic.AddInt64(&s.batches, 1)
	atomic.AddInt64(&s.batched, int64(len(union)))
	for _, req := range batch {
		if err != nil {
			req.err = err
		} else {
			out := make(map[extscc.NodeID]uint32, len(req.nodes))
			for _, n := range req.nodes {
				if scc, ok := resolved[n]; ok {
					out[n] = scc
				}
			}
			req.out = out
		}
		close(req.ready)
	}
}

// close stops the dispatcher once the queued requests are answered; later
// lookups fail with errClosed.
func (s *labelStore) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notify()
	s.wg.Wait()
}

func (s *labelStore) stats() (batches, batched int64) {
	return atomic.LoadInt64(&s.batches), atomic.LoadInt64(&s.batched)
}

// lruCache is a mutex-guarded LRU of hot node labels.  Both positive entries
// (node -> SCC) and negative ones (node absent from the labelling) are
// cached, so repeated queries for missing nodes also skip the label file.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[extscc.NodeID]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry struct {
	node  extscc.NodeID
	scc   uint32
	known bool
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[extscc.NodeID]*list.Element)}
}

// get returns (scc, known, hit): hit=false means the cache has no entry and
// the caller must consult the store; known=false on a hit means the node is
// cached as absent.
func (c *lruCache) get(node extscc.NodeID) (scc uint32, known, hit bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return 0, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[node]
	if !ok {
		c.misses.Add(1)
		return 0, false, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	e := el.Value.(*lruEntry)
	return e.scc, e.known, true
}

// add inserts or refreshes an entry, evicting the least recently used one
// when full.
func (c *lruCache) add(node extscc.NodeID, scc uint32, known bool) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[node]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.scc, e.known = scc, known
		return
	}
	c.items[node] = c.ll.PushFront(&lruEntry{node: node, scc: scc, known: known})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).node)
	}
}

func (c *lruCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

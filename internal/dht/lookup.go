package dht

import (
	"sort"
	"sync"
)

// QueryFunc issues one FindNode/FindValue RPC against contact c for target:
// it returns the contacts c offered and, for value lookups, the record when
// c held it. Implementations may block (the node's version waits on a wire
// round-trip). Lookup calls a QueryFunc from several goroutines at once, so
// any state it shares across calls must be synchronized.
type QueryFunc func(c Contact, target ID) (contacts []Contact, rec *Record, err error)

// Result summarizes one iterative lookup.
type Result struct {
	// Closest holds the k nearest responsive contacts found, nearest first.
	Closest []Contact
	// Record is the located value on a FindValue hit (nil otherwise).
	Record *Record
	// Queries counts RPCs issued; Failures counts the subset that errored.
	Queries  int
	Failures int
	// Hops counts query waves until convergence — the O(log N) quantity.
	Hops int
}

// lookup candidate states.
const (
	candNew = iota
	candQueried
	candFailed
)

type candidate struct {
	c     Contact
	state int
}

// Lookup is the iterative Kademlia lookup: starting from the seed contacts
// it repeatedly queries, in waves of up to alpha, the closest candidates not
// yet asked, folds every reply's contacts into the shortlist, and stops when
// the k closest known candidates have all been queried (or a value lookup
// hits).
//
// Concurrency: q runs concurrently, one goroutine per call, up to alpha calls
// per wave; waves do not overlap, and each contact is queried at most once.
// A q that touches shared state must guard it (TestLookupQueriesRunConcurrently
// pins this contract under -race). Replies merge in slot order, so with a
// deterministic QueryFunc the whole lookup — including its message count —
// is deterministic at any scheduling.
func Lookup(target ID, seeds []Contact, k, alpha int, q QueryFunc) Result {
	if k <= 0 {
		k = DefaultK
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	var res Result
	byAddr := make(map[string]*candidate)
	var order []*candidate // kept sorted by distance to target
	add := func(c Contact) {
		if c.Info.Addr == "" {
			return
		}
		if _, ok := byAddr[c.Info.Addr]; ok {
			return
		}
		cand := &candidate{c: c}
		byAddr[c.Info.Addr] = cand
		i := sort.Search(len(order), func(i int) bool {
			return Closer(target, c.ID, order[i].c.ID)
		})
		order = append(order, nil)
		copy(order[i+1:], order[i:])
		order[i] = cand
	}
	for _, s := range seeds {
		add(s)
	}

	// nextWave picks the closest un-queried candidates among the k nearest
	// non-failed ones; an empty pick means the lookup has converged.
	nextWave := func() []*candidate {
		var wave []*candidate
		live := 0
		for _, cand := range order {
			if cand.state == candFailed {
				continue
			}
			live++
			if cand.state == candNew && len(wave) < alpha {
				wave = append(wave, cand)
			}
			if live >= k {
				break
			}
		}
		return wave
	}

	type reply struct {
		contacts []Contact
		rec      *Record
		err      error
	}
	for {
		wave := nextWave()
		if len(wave) == 0 {
			break
		}
		res.Hops++
		replies := make([]reply, len(wave))
		var wg sync.WaitGroup
		for i, cand := range wave {
			cand.state = candQueried
			wg.Add(1)
			go func(slot int, c Contact) {
				defer wg.Done()
				contacts, rec, err := q(c, target)
				replies[slot] = reply{contacts: contacts, rec: rec, err: err}
			}(i, cand.c)
		}
		wg.Wait()
		// Merge in slot order so the candidate list (and therefore every
		// later wave) is independent of goroutine scheduling.
		for i, r := range replies {
			res.Queries++
			if r.err != nil {
				res.Failures++
				wave[i].state = candFailed
				continue
			}
			if r.rec != nil && res.Record == nil {
				res.Record = r.rec
			}
			for _, c := range r.contacts {
				add(c)
			}
		}
		if res.Record != nil {
			break
		}
	}

	for _, cand := range order {
		if cand.state == candFailed {
			continue
		}
		res.Closest = append(res.Closest, cand.c)
		if len(res.Closest) >= k {
			break
		}
	}
	return res
}

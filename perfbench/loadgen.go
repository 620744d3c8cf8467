package main

import (
	"sync"
	"sync/atomic"
)

// closedLoop performs requests 0 to n-1 from k clients, each starting its
// next request as soon as its previous one returned, so that k requests are
// in flight until fewer than k remain. Requests start in the order of their
// numbers. It returns once every request has returned.
func closedLoop(k, n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < min(k, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

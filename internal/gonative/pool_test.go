package gonative

// White-box tests for the free-slot bitmap: every thread ID is handed
// out exactly once, a thread's socket is its stripe's and never
// changes, a claim falls over to the next stripe when its hinted one
// is empty, and releases always go back to the slot's home stripe.

import (
	"sync"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

// pinHint replaces the stripe hint with a settable value for the
// duration of the test.
func pinHint(t *testing.T) *uintptr {
	t.Helper()
	orig := stripeHint
	t.Cleanup(func() { stripeHint = orig })
	h := new(uintptr)
	stripeHint = func() uintptr { return *h }
	return h
}

// TestPoolClaimsEveryIDOnce drains pools whose sockets span zero, one
// and several stripes, from every starting stripe: each ID comes out
// exactly once, then take fails; sockets stay in range and fixed
// per thread; after the releases every slot is free again.
func TestPoolClaimsEveryIDOnce(t *testing.T) {
	hint := pinHint(t)
	topo := numa.TwoSocketXeonE5()
	for _, capacity := range []int{1, 3, 64, 65, 200} {
		p := NewPool(capacity, topo)
		if got := p.Capacity(); got != capacity {
			t.Fatalf("capacity %d: Capacity() = %d", capacity, got)
		}
		socketOf := make(map[int]int)
		for start := range p.free.words {
			*hint = uintptr(start)
			claimed := make([]bool, capacity)
			var held []*locks.Thread
			for i := 0; i < capacity; i++ {
				th := p.free.take()
				if th == nil {
					t.Fatalf("capacity %d, hint %d: take failed after %d claims", capacity, start, i)
				}
				if th.ID < 0 || th.ID >= capacity || claimed[th.ID] {
					t.Fatalf("capacity %d, hint %d: thread ID %d out of range or claimed twice", capacity, start, th.ID)
				}
				claimed[th.ID] = true
				if th.Socket < 0 || th.Socket >= topo.Sockets {
					t.Fatalf("capacity %d: thread %d on socket %d, out of range", capacity, th.ID, th.Socket)
				}
				if s, seen := socketOf[th.ID]; seen && s != th.Socket {
					t.Fatalf("capacity %d: thread %d moved from socket %d to %d", capacity, th.ID, s, th.Socket)
				}
				socketOf[th.ID] = th.Socket
				held = append(held, th)
			}
			if th := p.free.take(); th != nil {
				t.Fatalf("capacity %d: take returned thread %d from a drained pool", capacity, th.ID)
			}
			if free := p.Free(); free != 0 {
				t.Fatalf("capacity %d: Free() = %d on a drained pool", capacity, free)
			}
			for _, th := range held {
				p.free.add(th)
			}
			if free := p.Free(); free != capacity {
				t.Fatalf("capacity %d: Free() = %d after releasing everything", capacity, free)
			}
		}
		// Each stripe holds one socket's threads, at most 64 of them.
		for s := range p.free.words {
			w := &p.free.words[s]
			n := 0
			for id := range p.free.threads {
				if int(p.free.home[id]>>6) == s {
					n++
					if p.free.threads[id].Socket != p.free.threads[w.base].Socket {
						t.Fatalf("capacity %d: stripe %d mixes sockets", capacity, s)
					}
				}
			}
			if n < 1 || n > 64 {
				t.Fatalf("capacity %d: stripe %d holds %d threads", capacity, s, n)
			}
		}
	}
}

// TestClaimFalloverKeepsStripeSocket: a claim whose hinted stripe is
// empty falls over to the next one and gets a thread of that stripe's
// socket; a release under any hint returns the slot to its home
// stripe, where the next claim hinting that stripe finds it.
func TestClaimFalloverKeepsStripeSocket(t *testing.T) {
	hint := pinHint(t)
	p := NewPool(2, numa.TwoSocketXeonE5()) // one slot per socket

	*hint = 0
	a := p.free.take()
	b := p.free.take() // stripe 0 is empty: falls over to stripe 1
	if a == nil || b == nil {
		t.Fatal("claims failed on a full pool")
	}
	if a.Socket != 0 || b.Socket != 1 {
		t.Fatalf("claims got sockets %d and %d, want 0 then the fallover stripe's 1", a.Socket, b.Socket)
	}
	*hint = 12345 // the releasing goroutine hints elsewhere
	p.free.add(a)
	p.free.add(b)
	*hint = 0
	if c := p.free.take(); c != a || c.Socket != 0 {
		t.Fatal("slot released under another hint did not return to its home stripe")
	}
	p.free.add(a)
}

// TestNativeRWManyReadersCrossRUnlock takes more read holds at once
// than one bitmap stripe has bits, and retires each from a goroutine
// other than the one that took it.
func TestNativeRWManyReadersCrossRUnlock(t *testing.T) {
	const readers = 150
	m := MustNewRW("CNA-rw", testEnv(200))
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RLock()
		}()
	}
	wg.Wait()
	if m.TryLock() {
		t.Fatal("writer TryLock succeeded under read holds")
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RUnlock()
		}()
	}
	wg.Wait()
	if !m.TryLock() {
		t.Fatal("writer TryLock failed after every read hold was retired")
	}
	m.Unlock()
	if free, capn, _ := poolFree(m); free != capn {
		t.Fatalf("%d of %d slots free after the read storm", free, capn)
	}
}

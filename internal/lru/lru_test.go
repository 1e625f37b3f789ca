package lru

import (
	"sync"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // a is now the most recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although a was used after it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was evicted although it was used after b")
	}
	c.Put("a", 10) // replace in place: no eviction
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("after replace: a=%d len=%d, want 10 and 2", v, c.Len())
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Cap() != 1 || c.Len() != 1 {
		t.Fatalf("cap=%d len=%d, want 1 and 1", c.Cap(), c.Len())
	}
}

// TestConcurrentUse is for the race detector: readers and writers on one
// cache.
func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Put(i%40, g)
				c.Get((i + g) % 40)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Cap() {
		t.Fatalf("len %d over capacity %d", c.Len(), c.Cap())
	}
}

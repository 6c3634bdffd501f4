package main

import (
	"bytes"
	"testing"
)

func streamBytes(s *stream) []byte {
	var b bytes.Buffer
	for _, id := range s.ids {
		b.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
	}
	b.Write(s.kinds)
	return b.Bytes()
}

// TestStreamsDeterministic: the same seed yields byte-identical inputs,
// another seed (or another client of the same seed) different ones.
func TestStreamsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64, client int) []byte{
		"uniform": func(seed int64, client int) []byte { return streamBytes(uniformStream(seed, client, 2, 4096)) },
		"zipf":    func(seed int64, client int) []byte { return streamBytes(zipfStream(seed, client, 2, 4096)) },
		"pool":    func(seed int64, client int) []byte { return valuePool(seed+int64(client), recordBytes) },
	}
	for name, gen := range gens {
		a := gen(7, 0)
		if !bytes.Equal(a, gen(7, 0)) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		if bytes.Equal(a, gen(8, 0)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		if bytes.Equal(a, gen(7, 1)) {
			t.Errorf("%s: clients 0 and 1 got the same stream", name)
		}
	}
}

// TestStreamsStayInClass: writes stay inside the client's residue class
// (what makes the last-writer oracle unambiguous) and inside the space.
func TestStreamsStayInClass(t *testing.T) {
	const clients, space = 2, 4096
	for c := 0; c < clients; c++ {
		for _, id := range uniformStream(3, c, clients, space).ids {
			if int(id)%clients != c || int(id) >= space {
				t.Fatalf("uniform client %d drew record %d", c, id)
			}
		}
		z := zipfStream(3, c, clients, space)
		var gets, puts int
		for i, id := range z.ids {
			if int(id) >= space {
				t.Fatalf("zipf client %d drew key %d", c, id)
			}
			if z.kinds[i] == kindPut {
				puts++
				if int(id)%clients != c {
					t.Fatalf("zipf client %d puts key %d of another class", c, id)
				}
			} else {
				gets++
			}
		}
		if ratio := float64(gets) / float64(gets+puts); ratio < 0.49 || ratio > 0.51 {
			t.Errorf("zipf client %d: %.3f of the ops are Gets, want half", c, ratio)
		}
	}
}

func TestRenderKeys(t *testing.T) {
	slab := renderKeys(1001)
	if got := string(slab[1000*keyBytes:]); got != "k000000000001000" {
		t.Errorf("key 1000 = %q", got)
	}
}

// TestTimedLoopAllocatesNothing: with the store stubbed out, the driver's
// side of an op — stream lookup, two clock reads, histogram, counters,
// the sampled span — does not allocate.
func TestTimedLoopAllocatesNothing(t *testing.T) {
	s := zipfStream(1, 0, 2, 4096)
	pool := valuePool(1, kvValueBytes)
	keys := renderKeys(4096)
	var sink int
	c := &clientRun{do: func(pos uint64) (int, error) {
		i := pos & streamMask
		key := keys[int(s.ids[i])*keyBytes:][:keyBytes]
		val := pool[pos&poolMask:][:kvValueBytes]
		sink += len(key) + len(val)
		return int(s.kinds[i]), nil
	}}
	c.reset(1)
	tr := newTracer()
	var ctl phaseCtl
	if allocs := testing.AllocsPerRun(10, func() { c.loop(&ctl, 10000, tr, 1) }); allocs != 0 {
		t.Errorf("the timed loop allocates %.1f times per 10000 ops, want 0", allocs)
	}
	if c.ops.Load() == 0 || sink == 0 {
		t.Error("the loop did not run")
	}
}

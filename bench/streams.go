package main

import (
	"math/rand"
)

// Precomputed inputs, after cockroach's workloadimpl/precomputedrand: all
// randomness is drawn from -seed during set-up, so the timed loop only
// indexes slices — no RNG, no fmt, no allocation. The program under test
// receives nothing but these inputs.

const (
	// streamLen is the number of precomputed entries per client; the
	// timed loop wraps around it. A power of two, so wrapping is a mask.
	streamLen  = 1 << 20
	streamMask = streamLen - 1
	// poolLen is the size of the random value pool; a write at stream
	// position p stores pool[p&poolMask:][:valueBytes].
	poolLen  = 1 << 16
	poolMask = poolLen - 1
)

const (
	kindGet = 0
	kindPut = 1
	// numKinds sizes the per-kind latency histograms.
	numKinds = 2
)

// stream is one client's inputs.
type stream struct {
	// ids holds record IDs (txn workloads: five consecutive entries per
	// transaction) or key indexes (kv-net: one per op).
	ids []uint32
	// kinds holds kindGet/kindPut per op (kv-net only; nil otherwise).
	kinds []uint8
}

// valuePool returns the shared pool of random value bytes for seed,
// padded so that any offset below poolLen yields a full value.
func valuePool(seed int64, valueBytes int) []byte {
	pool := make([]byte, poolLen+valueBytes)
	rand.New(rand.NewSource(seed)).Read(pool)
	return pool
}

// clientSeed decorrelates the clients of one run.
func clientSeed(seed int64, client int) int64 {
	return seed*1000003 + int64(client) + 1
}

// uniformStream draws record IDs uniformly from client's residue class
// of [0, space): id ≡ client (mod clients). Disjoint classes make the
// last-writer oracle unambiguous without any cross-client ordering.
func uniformStream(seed int64, client, clients, space int) *stream {
	r := rand.New(rand.NewSource(clientSeed(seed, client)))
	per := space / clients
	ids := make([]uint32, streamLen)
	for i := range ids {
		ids[i] = uint32(r.Intn(per)*clients + client)
	}
	return &stream{ids: ids}
}

// zipfStream draws kv-net ops: half Gets, half Puts, key ranks Zipf
// (s = zipfS) so a few keys are hot. Puts stay inside client's residue
// class (see uniformStream); Gets read any class, so the hot keys of one
// client are read by the other while it writes them.
func zipfStream(seed int64, client, clients, keys int) *stream {
	r := rand.New(rand.NewSource(clientSeed(seed, client)))
	per := keys / clients
	z := rand.NewZipf(r, zipfS, 1, uint64(per-1))
	s := &stream{ids: make([]uint32, streamLen), kinds: make([]uint8, streamLen)}
	for i := range s.ids {
		rank := int(z.Uint64())
		if r.Intn(2) == 0 {
			s.kinds[i] = kindGet
			s.ids[i] = uint32(rank*clients + r.Intn(clients))
		} else {
			s.kinds[i] = kindPut
			s.ids[i] = uint32(rank*clients + client)
		}
	}
	return s
}

// zipfS is the kv-net key skew.
const zipfS = 1.1

// keyBytes is the rendered key width.
const keyBytes = 16

// renderKeys pre-renders n fixed-width keys into one slab; key i is
// slab[i*keyBytes:][:keyBytes] ("k" + 15 decimal digits).
func renderKeys(n int) []byte {
	slab := make([]byte, n*keyBytes)
	for i := 0; i < n; i++ {
		k := slab[i*keyBytes : (i+1)*keyBytes]
		k[0] = 'k'
		v := i
		for j := keyBytes - 1; j >= 1; j-- {
			k[j] = byte('0' + v%10)
			v /= 10
		}
	}
	return slab
}

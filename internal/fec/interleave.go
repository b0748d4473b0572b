package fec

import (
	"fmt"
	"sync"
)

// Interleaver implements the 802.11 two-permutation block interleaver
// (Std 802.11-2012 §18.3.5.7). It operates on one OFDM symbol's worth of
// coded bits at a time.
//
//	ncbps: coded bits per OFDM symbol (48, 96, 192 or 288)
//	nbpsc: coded bits per subcarrier (1, 2, 4 or 6)
type Interleaver struct {
	ncbps, nbpsc int
	fwd, inv     []int // fwd[k] = final index of input bit k
}

// NewInterleaver builds the permutation tables for the given block geometry.
func NewInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || nbpsc <= 0 || ncbps%16 != 0 {
		return nil, fmt.Errorf("fec: bad interleaver geometry ncbps=%d nbpsc=%d", ncbps, nbpsc)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	fwd := make([]int, ncbps)
	inv := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		// First permutation: adjacent coded bits map onto nonadjacent
		// subcarriers.
		i := (ncbps/16)*(k%16) + k/16
		// Second permutation: adjacent bits alternate between less and more
		// significant constellation bits.
		j := s*(i/s) + (i+ncbps-(16*i)/ncbps)%s
		fwd[k] = j
		inv[j] = k
	}
	return &Interleaver{ncbps: ncbps, nbpsc: nbpsc, fwd: fwd, inv: inv}, nil
}

// interleaverCache shares Interleaver instances per geometry: the tables are
// immutable after construction, so one instance serves all goroutines, and
// hot paths skip rebuilding the permutations on every symbol run.
var interleaverCache sync.Map // key: ncbps<<8 | nbpsc -> *Interleaver

// CachedInterleaver returns a shared, immutable Interleaver for the given
// geometry, building it on first use.
func CachedInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	key := ncbps<<8 | nbpsc
	if il, ok := interleaverCache.Load(key); ok {
		return il.(*Interleaver), nil
	}
	il, err := NewInterleaver(ncbps, nbpsc)
	if err != nil {
		return nil, err
	}
	actual, _ := interleaverCache.LoadOrStore(key, il)
	return actual.(*Interleaver), nil
}

// BlockSize returns the number of bits per interleaved block.
func (il *Interleaver) BlockSize() int { return il.ncbps }

// Interleave permutes one block. len(in) must equal BlockSize().
func (il *Interleaver) Interleave(in []byte) ([]byte, error) {
	out := make([]byte, il.ncbps)
	if err := il.InterleaveInto(out, in); err != nil {
		return nil, err
	}
	return out, nil
}

// InterleaveInto is Interleave writing into a caller-provided BlockSize()
// buffer, allocation-free. in and out must not alias.
func (il *Interleaver) InterleaveInto(out, in []byte) error {
	if len(in) != il.ncbps {
		return fmt.Errorf("fec: interleave block length %d, want %d", len(in), il.ncbps)
	}
	if len(out) != il.ncbps {
		return fmt.Errorf("fec: interleave output length %d, want %d", len(out), il.ncbps)
	}
	for k, j := range il.fwd {
		out[j] = in[k]
	}
	return nil
}

// Deinterleave inverts Interleave.
func (il *Interleaver) Deinterleave(in []byte) ([]byte, error) {
	out := make([]byte, il.ncbps)
	if err := il.DeinterleaveInto(out, in); err != nil {
		return nil, err
	}
	return out, nil
}

// DeinterleaveInto is Deinterleave writing into a caller-provided
// BlockSize() buffer, allocation-free. in and out must not alias.
func (il *Interleaver) DeinterleaveInto(out, in []byte) error {
	if len(in) != il.ncbps {
		return fmt.Errorf("fec: deinterleave block length %d, want %d", len(in), il.ncbps)
	}
	if len(out) != il.ncbps {
		return fmt.Errorf("fec: deinterleave output length %d, want %d", len(out), il.ncbps)
	}
	for j, k := range il.inv {
		out[k] = in[j]
	}
	return nil
}

// DeinterleaveFloats applies the inverse permutation to per-bit soft values
// (LLRs), for the soft-decision receive path.
func (il *Interleaver) DeinterleaveFloats(in []float64) ([]float64, error) {
	out := make([]float64, il.ncbps)
	if err := il.DeinterleaveFloatsInto(out, in); err != nil {
		return nil, err
	}
	return out, nil
}

// DeinterleaveFloatsInto is DeinterleaveFloats writing into a
// caller-provided BlockSize() buffer, allocation-free.
func (il *Interleaver) DeinterleaveFloatsInto(out, in []float64) error {
	if len(in) != il.ncbps {
		return fmt.Errorf("fec: deinterleave block length %d, want %d", len(in), il.ncbps)
	}
	if len(out) != il.ncbps {
		return fmt.Errorf("fec: deinterleave output length %d, want %d", len(out), il.ncbps)
	}
	for j, k := range il.inv {
		out[k] = in[j]
	}
	return nil
}

// DeinterleaveLLRInto applies the inverse permutation to quantized int8
// LLRs, for the quantized soft receive path. Allocation-free.
func (il *Interleaver) DeinterleaveLLRInto(out, in []int8) error {
	if len(in) != il.ncbps {
		return fmt.Errorf("fec: deinterleave block length %d, want %d", len(in), il.ncbps)
	}
	if len(out) != il.ncbps {
		return fmt.Errorf("fec: deinterleave output length %d, want %d", len(out), il.ncbps)
	}
	for j, k := range il.inv {
		out[k] = in[j]
	}
	return nil
}

// DeinterleaveHardInto applies the inverse permutation to one block of
// hard 0/1 decisions, writing each as its unit-confidence LLR (+1 for
// 0, -1 for 1) —
// the hard receive path's input to SoftDecoder. Allocation-free.
func (il *Interleaver) DeinterleaveHardInto(out []int8, in []byte) error {
	if len(in) != il.ncbps {
		return fmt.Errorf("fec: deinterleave block length %d, want %d", len(in), il.ncbps)
	}
	if len(out) != il.ncbps {
		return fmt.Errorf("fec: deinterleave output length %d, want %d", len(out), il.ncbps)
	}
	for j, k := range il.inv {
		out[k] = hardLLR[in[j]]
	}
	return nil
}

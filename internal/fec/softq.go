package fec

import (
	"fmt"
	"math"
)

// Quantized soft decoding.
//
// The int8 LLR convention matches modem.DemapSoft: positive means coded bit
// 0 is more likely, magnitude is confidence, and 0 is an erasure (punctured
// positions are re-inserted as zeros). The decoder is invariant to any
// positive scaling of its inputs, so the quantizer upstream is free to pick
// whatever scale fills the int8 range; modem.LLRQScale documents the choice
// the demapper makes.
//
// SoftDecoder replaces the float64 ViterbiDecodeSoft chain on the receive
// hot path. Three things make it fast:
//
//  1. uint16 path metrics with periodic renormalization. Branch metrics are
//     at most 256 per step (|la|+|lb| of two int8 LLRs), and the metric
//     spread across the 64 states is bounded by 6*256 = 1536 once every
//     state is reachable (any state is 6 hops from the minimum-metric
//     state). Subtracting the running minimum every renormInterval steps
//     therefore keeps every metric below 1536 + 64*256 = 17920, safely
//     inside the < 2^15 headroom the SWAR comparison below requires.
//
//  2. A 256-entry cost LUT indexed by the quantized LLR's bit pattern
//     (sign/magnitude): pairCost[uint8(l)] packs cost(coded bit 0) in the
//     low half-word and cost(coded bit 1) in the high half-word, so the
//     per-step 4-entry output-pair cost table is built from two loads and
//     four adds with no per-bit branches and no precision loss.
//
//  3. An 8-lane SWAR add-compare-select: the trellis is walked as 16
//     butterflies of 4 next states whose path metrics are packed
//     4-per-uint64 (16-bit lanes), and the metric array itself is stored as
//     16 such words, so each loop iteration advances two adjacent
//     butterflies — 8 next-state lanes across two independent words. One
//     word load supplies both butterflies' low (or high) predecessors, the
//     two candidate metric vectors are formed with lane-broadcast
//     multiplies, the branch costs come from a 16-entry per-step table of
//     packed cost words (indexed by the two butterfly branch outputs, with
//     the complemented layout at index^15 — the K=7 generators both have
//     their newest- and oldest-bit taps set, so the second predecessor's
//     outputs are always the bitwise complement), and the lane-wise
//     compare/selects resolve in a handful of word ops using the high-bit
//     borrow trick. The two words per iteration carry no data dependency,
//     so their add-compare-select chains retire in parallel, and the
//     selected words store back directly with no uint16 repacking.
//
// Tie-breaking matches ViterbiDecodeSoft and the scalar hard-decision
// Hamming decoder kept as a test oracle: on equal metrics the low
// predecessor (state>>1) wins, so all three walk identical survivor paths
// on identical-decision inputs.
//
// Hard decisions run on this same kernel (DecodeHardInto, and through it
// ViterbiDecode): coded bit 0 becomes LLR +1, bit 1 becomes -1, and
// erasures 0. With unit magnitudes every branch metric is the Hamming
// distance, the 0x3000 start handicap dwarfs any 6-step hard path cost
// (12), and the tie and best-state rules are the scalar decoder's, so the
// decode is bit-identical to a Hamming-metric Viterbi, not merely close.
const (
	renormInterval = 64
	// initialMetric handicaps the 63 non-zero start states. It only needs
	// to exceed the largest 6-step path cost (6*256 = 1536) for paths
	// seeded at an invalid state to lose every merge against genuine
	// paths, exactly as the float64 decoder's +Inf initialization does.
	initialMetric = 0x3000
	swarHigh      = 0x8000800080008000
	swarOnes      = 0x0001000100010001
	// swarPair broadcasts one 16-bit lane into the two low lanes; shifted
	// left 32 it fills the two high lanes — the a|a<<16|b<<32|b<<48 layout
	// the butterfly's candidate vectors need.
	swarPair = 0x0000000000010001
	// numMetricWords is the packed metric array length: 64 states, 4
	// 16-bit lanes per word. Word w holds states 4w..4w+3.
	numMetricWords = numStates / 4
)

// pairCost packs, for the int8 LLR with bit pattern i, the branch cost of
// the transmitter having sent coded bit 0 (low 16 bits) and coded bit 1
// (high 16 bits): disagreeing with the LLR's sign costs its magnitude.
var pairCost = buildPairCost()

func buildPairCost() (t [256]uint32) {
	for i := range t {
		l := int(int8(i))
		var c0, c1 int
		if l < 0 {
			c0 = -l
		} else {
			c1 = l
		}
		t[i] = uint32(c0) | uint32(c1)<<16
	}
	return t
}

// butterflyOut[j] packs the branch outputs of the two low predecessors
// feeding next states 4j..4j+3: branchOut[2j][0]<<2 | branchOut[2j+1][0].
// The other six branches of the butterfly follow by complement (^3).
var butterflyOut = buildButterflyOut()

func buildButterflyOut() (t [16]uint8) {
	for j := range t {
		t[j] = branchOut[2*j][0]<<2 | branchOut[2*j+1][0]
	}
	// The SWAR kernel relies on two symmetries of the generator pair: both
	// polynomials tap the newest bit (input-bit complement) and the oldest
	// bit (high-predecessor complement). They hold for the 802.11 133/171
	// pair; guard against table edits.
	for s := 0; s < numStates; s++ {
		if branchOut[s][1] != branchOut[s][0]^3 {
			panic("fec: branch table lost input-bit complement symmetry")
		}
		if s < numStates/2 {
			for b := 0; b < 2; b++ {
				if branchOut[s+numStates/2][b] != branchOut[s][b]^3 {
					panic("fec: branch table lost high-predecessor complement symmetry")
				}
			}
		}
	}
	return t
}

// SoftDecoder is the package's reusable Viterbi decoder: quantized soft
// decisions through DecodeInto, hard decisions through DecodeHardInto. The
// zero value is ready to use; after the first call of a given frame size,
// both perform zero heap allocations. A SoftDecoder must not be shared
// between goroutines (use one per worker, or a sync.Pool).
type SoftDecoder struct {
	// metrics holds the two ping-pong path-metric arrays in packed SWAR
	// form: 16 uint64 words of four 16-bit lanes, word w carrying states
	// 4w..4w+3. The add-compare-select reads and writes whole words, so
	// metrics never round-trip through uint16 scalars inside the bit loop.
	metrics   [2][numMetricWords]uint64
	survivors []uint64
	scratch   []int8 // depunctured mother stream for rates 2/3 and 3/4
	hard      []int8 // DecodeHardInto's coded bits as unit LLRs
}

// hardLLR maps a hard coded-bit decision to its unit-confidence LLR: 0 ->
// +1, 1 -> -1, and any other value (an erasure) -> 0.
var hardLLR = [256]int8{0: 1, 1: -1}

// DecodeHardInto decodes a punctured stream of hard decisions (one 0/1
// byte per coded bit; any other value is an erasure) into dst, on the same
// kernel as DecodeInto. It is bit-identical to a Hamming-metric
// hard-decision Viterbi (see the tie-breaking notes above) and allocates
// nothing in steady state.
func (d *SoftDecoder) DecodeHardInto(dst, coded []byte, rate CodeRate, numInfoBits int) error {
	if cap(d.hard) < len(coded) {
		d.hard = make([]int8, len(coded))
	}
	llrs := d.hard[:len(coded)]
	for i, b := range coded {
		llrs[i] = hardLLR[b]
	}
	return d.DecodeInto(dst, llrs, rate, numInfoBits)
}

// Decode is DecodeInto with an allocated output slice.
func (d *SoftDecoder) Decode(llrs []int8, rate CodeRate, numInfoBits int) ([]byte, error) {
	if numInfoBits <= 0 {
		return nil, fmt.Errorf("fec: numInfoBits must be positive, got %d", numInfoBits)
	}
	out := make([]byte, numInfoBits)
	if err := d.DecodeInto(out, llrs, rate, numInfoBits); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto maximum-likelihood-decodes a punctured stream of quantized
// LLRs into dst (one 0/1 byte per information bit, len(dst) ==
// numInfoBits). It is the int8 counterpart of ViterbiDecodeSoft and decodes
// the same path on inputs that quantize without saturation; in steady state
// it allocates nothing.
func (d *SoftDecoder) DecodeInto(dst []byte, llrs []int8, rate CodeRate, numInfoBits int) error {
	if !rate.Valid() {
		return fmt.Errorf("fec: invalid code rate %v", rate)
	}
	if numInfoBits <= 0 {
		return fmt.Errorf("fec: numInfoBits must be positive, got %d", numInfoBits)
	}
	if len(dst) != numInfoBits {
		return fmt.Errorf("fec: output buffer needs %d entries, got %d", numInfoBits, len(dst))
	}
	mother := llrs
	if rate != Rate1_2 {
		need := 2 * numInfoBits
		if cap(d.scratch) < need {
			d.scratch = make([]int8, need)
		}
		mother = d.scratch[:need]
		if err := depunctureQInto(mother, llrs, rate); err != nil {
			return err
		}
	} else if len(llrs) < 2*numInfoBits {
		return fmt.Errorf("fec: LLR stream too short: have %d, need more for %d info bits at rate %v",
			len(llrs), numInfoBits, rate)
	}

	if cap(d.survivors) < numInfoBits {
		d.survivors = make([]uint64, numInfoBits)
	}
	surv := d.survivors[:numInfoBits]

	metric, next := &d.metrics[0], &d.metrics[1]
	metric[0] = initialMetric*swarOnes - initialMetric // state 0 free, 1..3 handicapped
	for i := 1; i < numMetricWords; i++ {
		metric[i] = initialMetric * swarOnes
	}

	for t := 0; t < numInfoBits; t++ {
		ca := pairCost[uint8(mother[2*t])]
		cb := pairCost[uint8(mother[2*t+1])]
		c0, c1 := uint64(ca&0xffff), uint64(ca>>16)
		e0, e1 := uint64(cb&0xffff), uint64(cb>>16)
		// cost[o] is the branch metric of emitting packed output o = A<<1|B.
		var cost [4]uint64
		cost[0] = c0 + e0
		cost[1] = c0 + e1
		cost[2] = c1 + e0
		cost[3] = c1 + e1
		// packed[idx] lays cost[o0], cost[o0^3], cost[o1], cost[o1^3] into
		// four 16-bit lanes for butterfly output pair idx = o0<<2|o1; the
		// high-predecessor cost word is packed[idx^15] by the complement
		// symmetry.
		var packed [16]uint64
		for idx := range packed {
			o0, o1 := idx>>2, idx&3
			packed[idx] = cost[o0] | cost[o0^3]<<16 | cost[o1]<<32 | cost[o1^3]<<48
		}
		var sbits uint64
		for j := 0; j < 16; j += 2 {
			// Butterflies j and j+1 share their predecessor words: states
			// 2j..2j+3 live in word j/2, states 2j+32..2j+35 in word
			// j/2+8. Butterfly j draws lanes 0,1 (low preds 2j, 2j+1) and
			// butterfly j+1 lanes 2,3, each broadcast to the a,a,b,b
			// candidate layout.
			w := metric[j>>1]
			hw := metric[(j>>1)+8]
			x0 := (w&0xffff)*swarPair | ((w >> 16 & 0xffff) * swarPair << 32)
			x1 := (w>>32&0xffff)*swarPair | ((w >> 48) * swarPair << 32)
			y0 := (hw&0xffff)*swarPair | ((hw >> 16 & 0xffff) * swarPair << 32)
			y1 := (hw>>32&0xffff)*swarPair | ((hw >> 48) * swarPair << 32)
			idx0 := butterflyOut[j]
			idx1 := butterflyOut[j+1]
			x0 += packed[idx0]
			y0 += packed[idx0^15]
			x1 += packed[idx1]
			y1 += packed[idx1^15]
			// Lane-wise strict compare: lane bit of m set iff y < x (the
			// high predecessor strictly wins; ties keep the low one, as in
			// the scalar decoders). Values stay below 2^15, so ORing the
			// lane sign bit into x and subtracting y+1 cannot borrow across
			// lanes, and the sign bit survives exactly when x >= y+1. The
			// two words' chains are independent — free ILP.
			diff0 := (x0 | swarHigh) - (y0 + swarOnes)
			diff1 := (x1 | swarHigh) - (y1 + swarOnes)
			m0 := (diff0 & swarHigh) >> 15
			m1 := (diff1 & swarHigh) >> 15
			mask0 := m0 * 0xffff
			mask1 := m1 * 0xffff
			next[j] = (y0 & mask0) | (x0 &^ mask0)
			next[j+1] = (y1 & mask1) | (x1 &^ mask1)
			sbits |= (m0&1 | m0>>15&2 | m0>>30&4 | m0>>45&8) << (4 * j)
			sbits |= (m1&1 | m1>>15&2 | m1>>30&4 | m1>>45&8) << (4*j + 4)
		}
		surv[t] = sbits
		metric, next = next, metric
		if t%renormInterval == renormInterval-1 {
			renormWords(metric)
		}
	}

	// Unpack the packed metrics for the final best-state scan; the strict
	// compare keeps the lowest state on ties, as the scalar decoders do.
	best, bestMetric := 0, metric[0]&0xffff
	for s := 1; s < numStates; s++ {
		if m := metric[s>>2] >> (16 * (s & 3)) & 0xffff; m < bestMetric {
			best, bestMetric = s, m
		}
	}
	state := best
	for t := numInfoBits - 1; t >= 0; t-- {
		dst[t] = byte(state & 1)
		state = state>>1 | int((surv[t]>>uint(state))&1)<<5
	}
	return nil
}

// renormWords subtracts the minimum path metric from every state, operating
// on the packed word layout: a lane-wise SWAR min folds the 16 words to
// one, a scalar pass folds its 4 lanes, and the broadcast subtraction
// cannot borrow across lanes because every lane is >= the minimum. The
// strict-compare trick requires lanes below 2^15, which the renorm cadence
// guarantees (see the metric-headroom analysis above).
func renormWords(metric *[numMetricWords]uint64) {
	lo := metric[0]
	for i := 1; i < numMetricWords; i++ {
		w := metric[i]
		diff := (lo | swarHigh) - (w + swarOnes)
		m := (diff & swarHigh) >> 15
		mask := m * 0xffff
		lo = (w & mask) | (lo &^ mask)
	}
	min := lo & 0xffff
	for k := 1; k < 4; k++ {
		if l := lo >> (16 * k) & 0xffff; l < min {
			min = l
		}
	}
	bcast := min * swarOnes
	for i := range metric {
		metric[i] -= bcast
	}
}

// ViterbiDecodeSoftQ is a convenience wrapper allocating a throwaway
// SoftDecoder; hot paths should hold a SoftDecoder and call DecodeInto.
func ViterbiDecodeSoftQ(llrs []int8, rate CodeRate, numInfoBits int) ([]byte, error) {
	var d SoftDecoder
	return d.Decode(llrs, rate, numInfoBits)
}

// depunctureQInto re-inserts zero-LLR erasures where bits were punctured,
// filling dst (length 2*numInfoBits) without allocating.
func depunctureQInto(dst, llrs []int8, rate CodeRate) error {
	pattern := rate.puncturePattern()
	src, n := 0, 0
	for n < len(dst) {
		for _, keep := range pattern {
			if n == len(dst) {
				break
			}
			if keep {
				if src >= len(llrs) {
					return fmt.Errorf("fec: LLR stream too short: have %d, need more for %d info bits at rate %v",
						len(llrs), len(dst)/2, rate)
				}
				dst[n] = llrs[src]
				src++
			} else {
				dst[n] = 0
			}
			n++
		}
	}
	return nil
}

// SatLLR8 saturates a float LLR (already multiplied by the caller's chosen
// quantization scale) to the symmetric int8 range [-127, 127]. Non-finite
// inputs quantize to 0 — an erasure — so pathological channel weights
// degrade gracefully instead of poisoning the trellis.
func SatLLR8(v float64) int8 {
	switch {
	case v >= 127:
		return 127
	case v <= -127:
		return -127
	case math.IsNaN(v):
		return 0
	default:
		return int8(math.Round(v))
	}
}

// QuantizeLLRsInto saturates scale*src[i] into dst. len(dst) must equal
// len(src).
func QuantizeLLRsInto(dst []int8, src []float64, scale float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("fec: quantize buffer needs %d entries, got %d", len(src), len(dst))
	}
	for i, l := range src {
		dst[i] = SatLLR8(l * scale)
	}
	return nil
}

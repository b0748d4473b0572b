package fec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// viterbiDecodeHardOracle is the scalar hard-decision Viterbi decoder the
// package shipped before hard decoding moved onto the SWAR kernel. It
// stays as the reference ViterbiDecode must match bit for bit: integer
// Hamming branch metrics, erasures (value 2) free, the low predecessor
// winning ties, and the lowest-index best state at traceback.
func viterbiDecodeHardOracle(coded []byte, rate CodeRate, numInfoBits int) ([]byte, error) {
	if !rate.Valid() {
		return nil, fmt.Errorf("fec: invalid code rate %v", rate)
	}
	if numInfoBits <= 0 {
		return nil, fmt.Errorf("fec: numInfoBits must be positive, got %d", numInfoBits)
	}
	mother := coded
	if rate != Rate1_2 {
		var err error
		mother, err = depunctureHard(coded, rate, numInfoBits)
		if err != nil {
			return nil, err
		}
	} else if len(coded) < 2*numInfoBits {
		return nil, fmt.Errorf("fec: coded stream too short: have %d bits, need more for %d info bits at rate %v",
			len(coded), numInfoBits, rate)
	}

	const inf = int32(1) << 29
	var m0, m1 [numStates]int32
	metric, next := &m0, &m1
	for i := 1; i < numStates; i++ {
		metric[i] = inf
	}
	// survivors[t] bit ns is set when state ns's winning predecessor at step
	// t was (ns>>1)|32 rather than ns>>1.
	survivors := make([]uint64, numInfoBits)

	for t := 0; t < numInfoBits; t++ {
		rxA, rxB := mother[2*t], mother[2*t+1]
		var cost [4]int32
		for o := 0; o < 4; o++ {
			oa, ob := byte(o>>1), byte(o&1)
			var c int32
			if rxA != 2 && rxA != oa {
				c++
			}
			if rxB != 2 && rxB != ob {
				c++
			}
			cost[o] = c
		}
		var bits uint64
		for ns := 0; ns < numStates; ns++ {
			b := ns & 1
			p0 := ns >> 1
			p1 := p0 | numStates/2
			c0 := metric[p0] + cost[branchOut[p0][b]]
			c1 := metric[p1] + cost[branchOut[p1][b]]
			if c1 < c0 {
				next[ns] = c1
				bits |= 1 << uint(ns)
			} else {
				next[ns] = c0
			}
		}
		survivors[t] = bits
		metric, next = next, metric
	}

	best := 0
	for s := 1; s < numStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	out := make([]byte, numInfoBits)
	state := best
	for t := numInfoBits - 1; t >= 0; t-- {
		out[t] = byte(state & 1)
		state = state>>1 | int((survivors[t]>>uint(state))&1)<<5
	}
	return out, nil
}

// depunctureHard re-inserts erasures (value 2) where punctured bits were
// dropped, recovering the mother-code stream length 2*numInfoBits.
func depunctureHard(coded []byte, rate CodeRate, numInfoBits int) ([]byte, error) {
	pattern := rate.puncturePattern()
	mother := make([]byte, 0, 2*numInfoBits)
	src := 0
	for len(mother) < 2*numInfoBits {
		for _, keep := range pattern {
			if len(mother) == 2*numInfoBits {
				break
			}
			if keep {
				if src >= len(coded) {
					return nil, fmt.Errorf("fec: coded stream too short: have %d bits, need more for %d info bits at rate %v",
						len(coded), numInfoBits, rate)
				}
				mother = append(mother, coded[src])
				src++
			} else {
				mother = append(mother, 2) // erasure
			}
		}
	}
	return mother, nil
}

// checkHardMatchesOracle decodes one input through ViterbiDecode and the
// scalar oracle and fails on any difference: both must reject or both
// accept, and accepted decodes must agree bit for bit.
func checkHardMatchesOracle(t *testing.T, coded []byte, rate CodeRate, numInfo int) {
	t.Helper()
	want, wantErr := viterbiDecodeHardOracle(coded, rate, numInfo)
	got, gotErr := ViterbiDecode(coded, rate, numInfo)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("rate %v, %d coded, %d info: oracle err %v, kernel err %v",
			rate, len(coded), numInfo, wantErr, gotErr)
	}
	if !bytes.Equal(want, got) {
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("rate %v, %d info bits: decoders diverge first at bit %d (oracle %d, kernel %d)",
					rate, numInfo, i, want[i], got[i])
			}
		}
	}
}

// codedLen is the punctured stream length carrying numInfo info bits.
func codedLen(rate CodeRate, numInfo int) int {
	pattern := rate.puncturePattern()
	n := 0
	for i := 0; i < 2*numInfo; i++ {
		if pattern[i%len(pattern)] {
			n++
		}
	}
	return n
}

// TestViterbiHardMatchesOracle is the seeded differential sweep behind the
// fuzz target: random info bits at every rate, encoded and flipped at
// 0-50% coded bit error rates, sprinkled with erasures, and occasionally
// truncated, decoded both ways.
func TestViterbiHardMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rates := []CodeRate{Rate1_2, Rate2_3, Rate3_4}
	for trial := 0; trial < 1500; trial++ {
		rate := rates[trial%3]
		numInfo := 1 + rng.Intn(400)
		info := make([]byte, numInfo)
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		coded, err := ConvEncode(info, rate)
		if err != nil {
			t.Fatal(err)
		}
		flip := rng.Float64() * 0.5
		for i := range coded {
			switch r := rng.Float64(); {
			case r < flip:
				coded[i] ^= 1
			case r < flip+0.02:
				coded[i] = byte(2 + rng.Intn(254)) // erasure
			}
		}
		if trial%10 == 9 {
			coded = coded[:rng.Intn(len(coded))]
		}
		checkHardMatchesOracle(t, coded, rate, numInfo)
	}
}

// FuzzViterbiHardMatchesOracle fuzzes ViterbiDecode against the scalar
// hard-decision oracle. Byte 0 selects the rate, byte 1 the stream
// shape: its low bits trim the coded stream below the length numInfo
// needs (exercising too-short rejection on both sides) and its high bit
// picks a tie-heavy synthetic stream (all ones, or alternating) instead
// of the fuzzed body. A body byte contributes its low bit, except 0xfe and
// 0xff, which pass through raw as values the decoders must both treat as
// erasures.
func FuzzViterbiHardMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{2, 3, 0, 1, 2, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 0x80, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0x81, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rate := []CodeRate{Rate1_2, Rate2_3, Rate3_4}[data[0]%3]
		shape := data[1]
		body := data[2:]
		numInfo := min(len(body), 2048) // bound trellis length, not input acceptance
		coded := make([]byte, codedLen(rate, numInfo))
		switch {
		case shape&0x80 == 0:
			for i := range coded {
				c := body[i%len(body)]
				if c < 0xfe {
					c &= 1
				}
				coded[i] = c
			}
		case shape&0x40 == 0:
			for i := range coded {
				coded[i] = 1 // every bit flipped from the all-zero codeword
			}
		default:
			for i := range coded {
				coded[i] = byte(i & 1)
			}
		}
		coded = coded[:max(0, len(coded)-int(shape&3))]
		checkHardMatchesOracle(t, coded, rate, numInfo)
	})
}

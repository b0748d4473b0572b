package phy

import (
	"fmt"
	"sync"

	"carpool/internal/fec"
)

// SoftQDecoder bundles the package's one Viterbi (fec.SoftDecoder) with
// the deinterleave and info-bit workspaces the DATA-field decode needs, so
// a reused instance (one per worker goroutine, or a sync.Pool entry)
// decodes frames with no steady-state allocations beyond the returned
// payload. It decodes quantized soft decisions (DecodeDataField) and hard
// decisions (DecodeHardDataField) through the same kernel and workspace.
// The zero value is ready to use. Not safe for concurrent use.
type SoftQDecoder struct {
	dec  fec.SoftDecoder
	llrs []int8
	info []byte
}

// decoderPool backs the package-level DATA-field decoders.
var decoderPool = sync.Pool{New: func() any { return new(SoftQDecoder) }}

// dataFieldGeometry validates a DATA-field decode of payloadLen bytes at
// mcs from haveBlocks per-symbol blocks, returning the symbol count, coded
// bits per symbol, and the symbol interleaver.
func dataFieldGeometry(haveBlocks int, mcs MCS, payloadLen int) (nsym, ncbps int, il *fec.Interleaver, err error) {
	if !mcs.Valid() {
		return 0, 0, nil, fmt.Errorf("phy: invalid MCS %v", mcs)
	}
	if payloadLen <= 0 {
		return 0, 0, nil, fmt.Errorf("phy: non-positive payload length %d", payloadLen)
	}
	nsym = mcs.NumSymbols(payloadLen)
	if haveBlocks < nsym {
		return 0, 0, nil, fmt.Errorf("phy: %d symbol blocks, need %d for %d bytes", haveBlocks, nsym, payloadLen)
	}
	ncbps = mcs.CodedBitsPerSymbol()
	il, err = fec.CachedInterleaver(ncbps, mcs.Mod.BitsPerSymbol())
	return nsym, ncbps, il, err
}

// lanes returns the reused n-entry deinterleaved LLR workspace.
func (d *SoftQDecoder) lanes(n int) []int8 {
	if cap(d.llrs) < n {
		d.llrs = make([]int8, n)
	}
	return d.llrs[:n]
}

// DecodeDataField is the quantized counterpart of DecodeDataFieldSoft: it
// consumes per-symbol int8 LLR blocks (interleaved order, the
// modem.DemapSoftQ convention) and decodes with the integer fast-path
// Viterbi. It decodes the same path as the float64 chain on inputs that
// quantize without saturation; the float64 chain remains available as the
// reference oracle (RxConfig.SoftFloat64).
func (d *SoftQDecoder) DecodeDataField(llrqBlocks [][]int8, mcs MCS, payloadLen int) ([]byte, error) {
	nsym, ncbps, il, err := dataFieldGeometry(len(llrqBlocks), mcs, payloadLen)
	if err != nil {
		return nil, err
	}
	llrs := d.lanes(nsym * ncbps)
	for i := 0; i < nsym; i++ {
		if err := il.DeinterleaveLLRInto(llrs[i*ncbps:(i+1)*ncbps], llrqBlocks[i]); err != nil {
			return nil, err
		}
	}
	return d.finishDataField(llrs, nsym, mcs, payloadLen)
}

// DecodeHardDataField decodes hard-demapped 0/1 blocks (Segment.Blocks,
// interleaved order): the deinterleave writes each coded bit as a
// unit-confidence LLR, which the shared Viterbi decodes bit-identically to
// a Hamming-metric hard-decision decoder.
func (d *SoftQDecoder) DecodeHardDataField(blocks [][]byte, mcs MCS, payloadLen int) ([]byte, error) {
	nsym, ncbps, il, err := dataFieldGeometry(len(blocks), mcs, payloadLen)
	if err != nil {
		return nil, err
	}
	llrs := d.lanes(nsym * ncbps)
	for i := 0; i < nsym; i++ {
		if err := il.DeinterleaveHardInto(llrs[i*ncbps:(i+1)*ncbps], blocks[i]); err != nil {
			return nil, err
		}
	}
	return d.finishDataField(llrs, nsym, mcs, payloadLen)
}

// finishDataField Viterbi-decodes one subframe's already-deinterleaved
// flat LLR lanes, descrambles, and extracts the payload bytes.
func (d *SoftQDecoder) finishDataField(llrs []int8, nsym int, mcs MCS, payloadLen int) ([]byte, error) {
	numInfo := nsym * mcs.DataBitsPerSymbol()
	if cap(d.info) < numInfo {
		d.info = make([]byte, numInfo)
	}
	info := d.info[:numInfo]
	if err := d.dec.DecodeInto(info, llrs, mcs.Rate, numInfo); err != nil {
		return nil, err
	}
	// The first 7 SERVICE bits expose the scrambling sequence.
	descrambler := fec.ScramblerFromOutputs(info[:7])
	descrambler.Apply(info[7:])
	payloadBits := info[serviceBits : serviceBits+8*payloadLen]
	return BitsToBytes(payloadBits), nil
}

// SoftQBatchJob is one subframe in a batched DATA-field decode: the
// per-symbol interleaved int8 LLR blocks (Segment.LLRQs), the subframe's
// MCS and announced payload length, and the Payload output slot.
type SoftQBatchJob struct {
	Blocks     [][]int8
	MCS        MCS
	PayloadLen int
	// Payload receives the decoded payload bytes.
	Payload []byte
}

// DecodeDataFieldBatch decodes K subframes' DATA fields through one
// workspace: every subframe's deinterleaved LLR lanes are laid back to
// back in a single contiguous slab, and the reused 8-lane Viterbi walks
// them in sequence — one deinterleave pass and zero steady-state
// allocations beyond the returned payloads, with no per-subframe decoder
// churn. Outputs are bit-identical to calling DecodeDataField once per
// subframe. On error the failing job's index is returned (earlier jobs
// keep their decoded payloads); on success the index is -1.
func (d *SoftQDecoder) DecodeDataFieldBatch(jobs []SoftQBatchJob) (int, error) {
	// Pass 1: validate and size the slab holding every subframe's lanes.
	total := 0
	for i := range jobs {
		job := &jobs[i]
		nsym, ncbps, _, err := dataFieldGeometry(len(job.Blocks), job.MCS, job.PayloadLen)
		if err != nil {
			return i, err
		}
		total += nsym * ncbps
	}
	slab := d.lanes(total)

	// Pass 2: deinterleave every subframe into its contiguous lanes, then
	// decode each range in place.
	off := 0
	for i := range jobs {
		job := &jobs[i]
		nsym, ncbps, il, err := dataFieldGeometry(len(job.Blocks), job.MCS, job.PayloadLen)
		if err != nil {
			return i, err
		}
		lanes := slab[off : off+nsym*ncbps]
		for s := 0; s < nsym; s++ {
			if err := il.DeinterleaveLLRInto(lanes[s*ncbps:(s+1)*ncbps], job.Blocks[s]); err != nil {
				return i, err
			}
		}
		payload, err := d.finishDataField(lanes, nsym, job.MCS, job.PayloadLen)
		if err != nil {
			return i, err
		}
		job.Payload = payload
		off += nsym * ncbps
	}
	return -1, nil
}

// DecodeDataFieldSoftQ decodes quantized LLR blocks through a pooled
// SoftQDecoder.
func DecodeDataFieldSoftQ(llrqBlocks [][]int8, mcs MCS, payloadLen int) ([]byte, error) {
	d := decoderPool.Get().(*SoftQDecoder)
	defer decoderPool.Put(d)
	return d.DecodeDataField(llrqBlocks, mcs, payloadLen)
}

// DecodeDataFieldBatch runs SoftQDecoder.DecodeDataFieldBatch through a
// pooled decoder.
func DecodeDataFieldBatch(jobs []SoftQBatchJob) (int, error) {
	d := decoderPool.Get().(*SoftQDecoder)
	defer decoderPool.Put(d)
	return d.DecodeDataFieldBatch(jobs)
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Sharded-index serialization: the POLS container wraps K nested shard
// blobs behind a shard directory. The layout is
//
//	magic "POLS" | version 2 | kind (static|dynamic) | agg | K uint32 |
//	bounds (K−1 float64) | K × (uint64 length + shard blob)
//
// where static containers nest Index1D ("POL1") blobs and dynamic
// containers nest Dynamic1D ("POLD") blobs — so a sharded dynamic blob
// round-trips everything its shards do: options, raw data, delta buffers,
// fitted bases, and (v2) per-shard coefficient encodings. The container
// layout is identical across versions — v2 exists because its nested blobs
// may use the POL1 v2 / POLD v3 formats (or POLD v4, which a v2 container
// may nest as well) — and v1 blobs still load.
// Decoding validates the directory (shard count, bound ordering, per-shard
// length) and the cross-shard invariants (uniform aggregate and δ, key
// ranges consistent with the routing bounds) before returning; corrupt,
// truncated, or mismatched blobs error, never panic.

const (
	magicSharded     = uint32(0x504F4C53) // "POLS"
	shardedFormatVer = uint16(2)

	shardKindStatic  = uint8(0)
	shardKindDynamic = uint8(1)
)

// shardedHeader reads and validates the fixed POLS prefix common to both
// kinds, returning the kind, aggregate, and bounds.
func shardedHeader(r *bytes.Reader, data []byte) (kind uint8, agg Agg, bounds []float64, err error) {
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var m uint32
	var ver uint16
	if err := rd(&m); err != nil || m != magicSharded {
		if m == magic1D || m == magicDyn {
			return 0, 0, nil, fmt.Errorf("%w: unsharded index blob (use the matching Unmarshal)", ErrBadFormat)
		}
		return 0, 0, nil, fmt.Errorf("%w: magic", ErrBadFormat)
	}
	if err := rd(&ver); err != nil || (ver != 1 && ver != shardedFormatVer) {
		return 0, 0, nil, fmt.Errorf("%w: sharded format version", ErrBadFormat)
	}
	var aggB uint8
	var k uint32
	if err := firstErr(rd(&kind), rd(&aggB), rd(&k)); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: sharded header", ErrBadFormat)
	}
	if kind != shardKindStatic && kind != shardKindDynamic {
		return 0, 0, nil, fmt.Errorf("%w: sharded kind %d", ErrBadFormat, kind)
	}
	agg = Agg(aggB)
	if agg < Count || agg > Max {
		return 0, 0, nil, fmt.Errorf("%w: aggregate %d", ErrBadFormat, aggB)
	}
	// Each shard needs at least a directory entry (8 bytes) plus a non-empty
	// blob; reject counts the data cannot possibly hold before allocating.
	if k == 0 || k > maxShards || uint64(k) > uint64(len(data))/9+1 {
		return 0, 0, nil, fmt.Errorf("%w: %d shards", ErrBadFormat, k)
	}
	bounds = make([]float64, k-1)
	for i := range bounds {
		if err := rd(&bounds[i]); err != nil {
			return 0, 0, nil, fmt.Errorf("%w: shard bounds", ErrBadFormat)
		}
		if math.IsNaN(bounds[i]) || math.IsInf(bounds[i], 0) {
			return 0, 0, nil, fmt.Errorf("%w: non-finite shard bound", ErrBadFormat)
		}
		if i > 0 && bounds[i] <= bounds[i-1] {
			return 0, 0, nil, fmt.Errorf("%w: shard bounds not strictly increasing", ErrBadFormat)
		}
	}
	return kind, agg, bounds, nil
}

// readShardBlob pulls the next directory entry and its nested blob.
func readShardBlob(r *bytes.Reader, i int) ([]byte, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: shard %d directory entry", ErrBadFormat, i)
	}
	if n == 0 || n > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: shard %d blob length %d with %d bytes left", ErrBadFormat, i, n, r.Len())
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, fmt.Errorf("%w: shard %d blob", ErrBadFormat, i)
	}
	return blob, nil
}

func marshalSharded(kind uint8, agg Agg, bounds []float64, shardBlob func(i int) ([]byte, error), k int) ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(magicSharded)
	w(shardedFormatVer)
	w(kind)
	w(uint8(agg))
	w(uint32(k))
	for _, b := range bounds {
		w(b)
	}
	for i := 0; i < k; i++ {
		blob, err := shardBlob(i)
		if err != nil {
			return nil, err
		}
		w(uint64(len(blob)))
		buf.Write(blob)
	}
	return buf.Bytes(), nil
}

// MarshalBinary serialises the sharded index as a POLS container of static
// shard blobs. Like Index1D.MarshalBinary, exact fallbacks are not
// serialised: a loaded sharded index serves absolute-guarantee queries and
// returns ErrNoFallback for relative ones.
func (s *Sharded1D) MarshalBinary() ([]byte, error) {
	return marshalSharded(shardKindStatic, s.agg, s.bounds,
		func(i int) ([]byte, error) { return s.shards[i].MarshalBinary() }, len(s.shards))
}

// UnmarshalBinary loads a static POLS container. Dynamic containers are
// rejected with a descriptive error (use RestoreShardedDynamic).
func (s *Sharded1D) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	kind, agg, bounds, err := shardedHeader(r, data)
	if err != nil {
		return err
	}
	if kind != shardKindStatic {
		return fmt.Errorf("%w: dynamic sharded blob (use RestoreShardedDynamic)", ErrBadFormat)
	}
	shards := make([]*Index1D, len(bounds)+1)
	for i := range shards {
		blob, err := readShardBlob(r, i)
		if err != nil {
			return err
		}
		sh := &Index1D{}
		if err := sh.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if sh.agg != agg {
			return fmt.Errorf("%w: shard %d aggregate %v, container says %v", ErrBadFormat, i, sh.agg, agg)
		}
		if i > 0 && sh.delta != shards[0].delta {
			return fmt.Errorf("%w: shard %d delta %g, shard 0 has %g", ErrBadFormat, i, sh.delta, shards[0].delta)
		}
		if i > 0 && sh.keyLo < bounds[i-1] {
			return fmt.Errorf("%w: shard %d key %g below bound %g", ErrBadFormat, i, sh.keyLo, bounds[i-1])
		}
		if i < len(bounds) && sh.keyHi >= bounds[i] {
			return fmt.Errorf("%w: shard %d key %g at or above bound %g", ErrBadFormat, i, sh.keyHi, bounds[i])
		}
		shards[i] = sh
	}
	s.Engine = Engine{agg: agg, delta: shards[0].delta, bounds: bounds, qs: queriers(shards)}
	s.shards = shards
	return nil
}

// MarshalBinary serialises the sharded dynamic index as a POLS container of
// dynamic (POLD) shard blobs. Each shard is marshalled from one immutable
// snapshot, so concurrent writers are never blocked; cross-shard
// consistency is per shard (an insert racing the marshal lands in its
// shard's blob or not, independently).
func (s *ShardedDynamic1D) MarshalBinary() ([]byte, error) {
	return marshalSharded(shardKindDynamic, s.agg, s.bounds,
		func(i int) ([]byte, error) { return s.shards[i].MarshalBinary() }, len(s.shards))
}

// MarshalShard serialises one shard alone as a dynamic (POLD) blob — the
// unit of the serving layer's per-shard snapshots.
func (s *ShardedDynamic1D) MarshalShard(i int) ([]byte, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrShardOutOfRange, i, len(s.shards))
	}
	return s.shards[i].MarshalBinary()
}

// RestoreShardedDynamic reconstructs a ShardedDynamic1D from a
// ShardedDynamic1D.MarshalBinary blob. Every shard restores exactly as
// RestoreDynamic would (no re-fitting; fallbacks rebuilt when enabled) and
// the cross-shard invariants are re-validated; corrupt blobs are rejected
// with an error wrapping ErrBadFormat, never a panic.
func RestoreShardedDynamic(data []byte) (*ShardedDynamic1D, error) {
	r := bytes.NewReader(data)
	kind, agg, bounds, err := shardedHeader(r, data)
	if err != nil {
		return nil, err
	}
	if kind != shardKindDynamic {
		return nil, fmt.Errorf("%w: static sharded blob (use Sharded1D.UnmarshalBinary)", ErrBadFormat)
	}
	shards := make([]*Dynamic1D, len(bounds)+1)
	for i := range shards {
		blob, err := readShardBlob(r, i)
		if err != nil {
			return nil, err
		}
		sh, err := RestoreDynamic(blob)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if sh.agg != agg {
			return nil, fmt.Errorf("%w: shard %d aggregate %v, container says %v", ErrBadFormat, i, sh.agg, agg)
		}
		shards[i] = sh
	}
	sd, err := AssembleShardedDynamic(bounds, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return sd, nil
}

package polyfit

import (
	"fmt"

	"repro/internal/core"
)

// BlobKind identifies which index type produced a serialised blob.
type BlobKind = core.BlobKind

// Blob kinds distinguishable from a serialised blob's magic bytes.
const (
	BlobUnknown        = core.BlobUnknown
	BlobStatic1D       = core.BlobStatic1D       // static one-key index ("POL1")
	BlobStatic2D       = core.BlobStatic2D       // two-key index ("POL2")
	BlobDynamic        = core.BlobDynamic        // dynamic index ("POLD")
	BlobShardedStatic  = core.BlobShardedStatic  // sharded container of static shards ("POLS")
	BlobShardedDynamic = core.BlobShardedDynamic // sharded container of dynamic shards ("POLS")
)

// DetectBlob sniffs the magic bytes of a serialised index so callers can
// dispatch without trial decoding. Open does this internally; DetectBlob is
// for callers that need to route before deserialising (e.g. to reject 2D
// blobs up front).
func DetectBlob(data []byte) BlobKind { return core.DetectBlob(data) }

// Open restores any serialised one-key index behind the uniform Index
// interface, sniffing the blob kind (static POL1, dynamic POLD, sharded
// POLS) and returning the matching implementation — dynamic blobs come back
// insertable (Inserter), sharded ones range-partitioned (Sharder).
//
// Corrupt, truncated, or internally inconsistent blobs are rejected with an
// error wrapping ErrCorruptBlob; Open never panics on garbage input. Blobs
// of a two-key index are refused with a pointer to Open2D (the rectangle
// query contract does not fit Index) — that error wraps ErrAggMismatch, so
// it stays classifiable without being mistaken for corruption.
func Open(data []byte) (Index, error) {
	switch core.DetectBlob(data) {
	case core.BlobStatic1D:
		inner := &core.Index1D{}
		if err := inner.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return newStaticIndex(inner), nil
	case core.BlobDynamic:
		inner, err := core.RestoreDynamic(data)
		if err != nil {
			return nil, err
		}
		return newDynamicIndex(inner), nil
	case core.BlobShardedStatic:
		inner := &core.Sharded1D{}
		if err := inner.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return newShardedIndex(inner), nil
	case core.BlobShardedDynamic:
		inner, err := core.RestoreShardedDynamic(data)
		if err != nil {
			return nil, err
		}
		return newShardedDynamicIndex(inner), nil
	case core.BlobStatic2D:
		return nil, fmt.Errorf("%w: blob holds a two-key index (use Open2D)", ErrAggMismatch)
	default:
		return nil, fmt.Errorf("%w: unrecognized blob magic", ErrCorruptBlob)
	}
}

// Open2D restores a serialised two-key index (Index2D.MarshalBinary).
// Corrupt blobs are rejected with an error wrapping ErrCorruptBlob.
func Open2D(data []byte) (*Index2D, error) {
	inner := &core.Index2D{}
	if err := inner.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &Index2D{inner: inner}, nil
}

// Assemble reconstitutes a sharded dynamic index from independently
// recovered per-shard dynamic blobs (ShardSnapshotter.MarshalShard) and the
// routing bounds — the serving layer's per-shard recovery path. The shards
// must agree on aggregate and δ and hold key ranges consistent with the
// bounds; violations are rejected with an error wrapping ErrCorruptBlob.
func Assemble(bounds []float64, shardBlobs [][]byte) (Index, error) {
	shards := make([]*core.Dynamic1D, len(shardBlobs))
	for i, blob := range shardBlobs {
		sh, err := core.RestoreDynamic(blob)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i] = sh
	}
	inner, err := core.AssembleShardedDynamic(bounds, shards)
	if err != nil {
		return nil, err
	}
	return newShardedDynamicIndex(inner), nil
}

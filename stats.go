package polyfit

import (
	"fmt"

	"repro/internal/core"
)

// Stats summarises an index.
type Stats struct {
	Aggregate     Agg
	Records       int
	Segments      int
	Degree        int
	Delta         float64
	IndexBytes    int    // the compact PolyFit structure (plus delta buffer, if dynamic)
	CoeffBytes    int    // coefficient lanes alone, included in IndexBytes
	RootBytes     int    // learned-root locate tables, included in IndexBytes
	FallbackBytes int    // exact structures for QueryRel (0 if disabled)
	Encoding      string // coefficient encoding: "raw", "float32", "packed", or "mixed"
	BufferLen     int    // not-yet-merged inserts (always 0 for static indexes)
	Shards        int    // range partitions (0 for unsharded indexes)
	KeyLo, KeyHi  float64
}

func (s Stats) String() string {
	return fmt.Sprintf("%v index: %d records → %d deg-%d segments (δ=%g, %dB index, %dB fallback)",
		s.Aggregate, s.Records, s.Segments, s.Degree, s.Delta, s.IndexBytes, s.FallbackBytes)
}

// The helpers below are the single source of Stats for each layout.

func stats1D(ix *core.Index1D) Stats {
	lo, hi := ix.KeyRange()
	return Stats{
		KeyLo:         lo,
		KeyHi:         hi,
		Aggregate:     ix.Aggregate(),
		Records:       ix.Len(),
		Segments:      ix.NumSegments(),
		Degree:        ix.Degree(),
		Delta:         ix.Delta(),
		IndexBytes:    ix.SizeBytes(),
		CoeffBytes:    ix.CoeffSizeBytes(),
		RootBytes:     ix.RootSizeBytes(),
		FallbackBytes: ix.FallbackSizeBytes(),
		Encoding:      ix.Encoding().String(),
	}
}

// statsDynamic reports the current structure from one consistent snapshot.
// IndexBytes includes the full delta-buffer footprint (keys, measures, and
// prefix aggregates); BufferLen counts the not-yet-merged inserts.
func statsDynamic(d *core.Dynamic1D) Stats {
	v := d.View()
	lo, hi := d.KeyRange()
	return Stats{
		KeyLo:         lo,
		KeyHi:         hi,
		Aggregate:     v.Base.Aggregate(),
		Records:       v.Records,
		Segments:      v.Base.NumSegments(),
		Degree:        v.Base.Degree(),
		Delta:         v.Base.Delta(),
		IndexBytes:    v.Base.SizeBytes() + v.BufferBytes,
		CoeffBytes:    v.Base.CoeffSizeBytes(),
		RootBytes:     v.Base.RootSizeBytes(),
		FallbackBytes: v.Base.FallbackSizeBytes(),
		Encoding:      v.Base.Encoding().String(),
		BufferLen:     v.BufferLen,
	}
}

func statsSharded(s *core.Sharded1D) Stats {
	lo, hi := s.KeyRange()
	out := Stats{
		Aggregate:     s.Aggregate(),
		Records:       s.Len(),
		Segments:      s.NumSegments(),
		Degree:        s.Shard(0).Degree(),
		Delta:         s.Delta(),
		IndexBytes:    s.SizeBytes(),
		RootBytes:     s.RootSizeBytes(),
		FallbackBytes: s.FallbackSizeBytes(),
		Shards:        s.NumShards(),
		KeyLo:         lo,
		KeyHi:         hi,
	}
	for i := 0; i < s.NumShards(); i++ {
		out.CoeffBytes += s.Shard(i).CoeffSizeBytes()
	}
	out.Encoding = mergedEncoding(shardStatsStatic(s))
	return out
}

// mergedEncoding reports the container-level coefficient encoding: the
// shards' encoding when uniform, "mixed" when the per-shard choice diverged
// (each shard certifies independently, so heterogeneity is expected on
// non-uniform data).
func mergedEncoding(shards []Stats) string {
	enc := shards[0].Encoding
	for _, sh := range shards[1:] {
		if sh.Encoding != enc {
			return "mixed"
		}
	}
	return enc
}

func shardStatsStatic(s *core.Sharded1D) []Stats {
	out := make([]Stats, s.NumShards())
	for i := range out {
		out[i] = stats1D(s.Shard(i))
	}
	return out
}

// statsShardedDynamic sums per-shard snapshots; each row is internally
// consistent even under concurrent inserts.
func statsShardedDynamic(s *core.ShardedDynamic1D) Stats {
	shards := shardStatsDynamic(s)
	out := Stats{
		Aggregate: s.Aggregate(),
		Delta:     s.Delta(),
		Degree:    shards[0].Degree,
		Shards:    len(shards),
		KeyLo:     shards[0].KeyLo,
		KeyHi:     shards[len(shards)-1].KeyHi,
	}
	for _, sh := range shards {
		out.Records += sh.Records
		out.Segments += sh.Segments
		out.IndexBytes += sh.IndexBytes
		out.CoeffBytes += sh.CoeffBytes
		out.RootBytes += sh.RootBytes
		out.FallbackBytes += sh.FallbackBytes
		out.BufferLen += sh.BufferLen
	}
	out.Encoding = mergedEncoding(shards)
	return out
}

func shardStatsDynamic(s *core.ShardedDynamic1D) []Stats {
	out := make([]Stats, s.NumShards())
	for i := range out {
		out[i] = statsDynamic(s.Shard(i))
	}
	return out
}

package polyfit_test

import (
	"fmt"

	polyfit "repro"
)

// ExampleNew builds an index through the unified builder and reads the
// certified error bound off the answer; swapping WithDynamic()/WithShards(k)
// into the option list changes the layout without changing any query code.
func ExampleNew() {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i) * 1.5 // sorted, distinct
	}
	ix, err := polyfit.New(
		polyfit.Spec{Agg: polyfit.Count, Keys: keys},
		polyfit.WithMaxError(4),
	)
	if err != nil {
		panic(err)
	}
	// Count keys in (150, 300]: exactly 100 of them (151.5, 153, ..., 300).
	res, _ := ix.Query(polyfit.Range{Lo: 150, Hi: 300})
	fmt.Printf("count ≈ %.0f ± %.0f (exact 100)\n", res.Value, res.Bound)
	// Output: count ≈ 100 ± 4 (exact 100)
}

// ExampleOpen round-trips an index of any layout through its binary
// encoding: Open sniffs the blob kind and restores the matching variant
// behind the same Index interface.
func ExampleOpen() {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i) * 1.5
	}
	ix, err := polyfit.New(
		polyfit.Spec{Agg: polyfit.Count, Keys: keys},
		polyfit.WithMaxError(4), polyfit.WithDynamic(), polyfit.WithShards(4),
	)
	if err != nil {
		panic(err)
	}
	blob, _ := ix.MarshalBinary()
	loaded, err := polyfit.Open(blob)
	if err != nil {
		panic(err)
	}
	_, insertable := loaded.(polyfit.Inserter)
	sh, _ := loaded.(polyfit.Sharder)
	fmt.Printf("restored: insertable=%v shards=%d\n", insertable, sh.NumShards())
	// Output: restored: insertable=true shards=4
}

// ExampleNew_count builds a COUNT index over a small sorted key set and
// answers a range count within the requested absolute error.
func ExampleNew_count() {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i) * 1.5 // sorted, distinct
	}
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys}, polyfit.WithMaxError(4))
	if err != nil {
		panic(err)
	}
	// Count keys in (150, 300]: exactly 100 of them (151.5, 153, ..., 300).
	res, _ := ix.Query(polyfit.Range{Lo: 150, Hi: 300})
	fmt.Printf("count ≈ %.0f (exact 100, guarantee ±4)\n", res.Value)
	// Output: count ≈ 100 (exact 100, guarantee ±4)
}

// ExampleIndex_QueryRel shows the certified relative-error path: the result
// is within 1% whether the approximate gate passed or the exact fallback
// answered.
func ExampleIndex_QueryRel() {
	keys := make([]float64, 5000)
	for i := range keys {
		keys[i] = float64(i * i) // quadratic spacing → curved CDF
	}
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys}, polyfit.WithDelta(10))
	if err != nil {
		panic(err)
	}
	res, err := ix.QueryRel(polyfit.Range{Lo: keys[100], Hi: keys[4900]}, 0.01)
	if err != nil {
		panic(err)
	}
	const exact = 4800.0
	relErr := (res.Value - exact) / exact
	if relErr < 0 {
		relErr = -relErr
	}
	fmt.Printf("within 1%%: %v (exact path used: %v)\n", relErr <= 0.01, res.Exact)
	// Output: within 1%: true (exact path used: false)
}

// ExampleNew_max answers a range MAX from the polynomial segments plus the
// per-segment exact maxima.
func ExampleNew_max() {
	keys := make([]float64, 0, 100)
	vals := make([]float64, 0, 100)
	for i := 0; i < 100; i++ {
		keys = append(keys, float64(i))
		vals = append(vals, float64(50-absInt(i-50))) // tent: peak 50 at i=50
	}
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Max, Keys: keys, Measures: vals}, polyfit.WithMaxError(1))
	if err != nil {
		panic(err)
	}
	res, _ := ix.Query(polyfit.Range{Lo: 10, Hi: 90})
	fmt.Printf("max ≈ %.0f found=%v (exact 50, guarantee ±1)\n", res.Value, res.Found)
	// Output: max ≈ 50 found=true (exact 50, guarantee ±1)
}

// ExampleInserter demonstrates the insert-supporting layout: the delta
// buffer is aggregated exactly, so the guarantee survives updates.
func ExampleInserter() {
	keys := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys},
		polyfit.WithMaxError(2), polyfit.WithDynamic())
	if err != nil {
		panic(err)
	}
	d := ix.(polyfit.Inserter)
	_ = d.Insert(2.5, 1)
	_ = d.Insert(3.5, 1)
	res, _ := ix.Query(polyfit.Range{Lo: 2, Hi: 4}) // keys in (2,4]: {2.5, 3, 3.5, 4}
	fmt.Printf("count ≈ %.0f of 4 (buffer %d)\n", res.Value, d.BufferLen())
	// Output: count ≈ 4 of 4 (buffer 2)
}

// ExampleIndex_marshal round-trips an index through its binary encoding.
func ExampleIndex_marshal() {
	keys := make([]float64, 200)
	for i := range keys {
		keys[i] = float64(i)
	}
	ix, _ := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys}, polyfit.WithMaxError(2))
	blob, _ := ix.MarshalBinary()
	loaded, err := polyfit.Open(blob)
	if err != nil {
		panic(err)
	}
	a, _ := ix.Query(polyfit.Range{Lo: 50, Hi: 150})
	b, _ := loaded.Query(polyfit.Range{Lo: 50, Hi: 150})
	fmt.Printf("same answer after round-trip: %v\n", a == b)
	// Output: same answer after round-trip: true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

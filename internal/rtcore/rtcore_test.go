package rtcore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, 5, 6)
	if got := a.Add(b); got != V(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); got != V(0, 0, 1) {
		t.Errorf("Cross = %v, want (0,0,1)", got)
	}
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	n := V(0, 0, 10).Normalize()
	if math.Abs(float64(n.Len())-1) > 1e-6 || n.Z != 1 {
		t.Errorf("Normalize = %v", n)
	}
	if got := V(0, 0, 0).Normalize(); got != V(0, 0, 0) {
		t.Errorf("Normalize zero = %v", got)
	}
	if got := a.Min(V(2, 1, 5)); got != V(1, 1, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(V(2, 1, 5)); got != V(2, 2, 5) {
		t.Errorf("Max = %v", got)
	}
	for i, want := range []float32{1, 2, 3} {
		if got := a.Axis(i); got != want {
			t.Errorf("Axis(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestRayAt(t *testing.T) {
	r := NewRay(V(0, 0, 0), V(0, 0, 2))
	if got := r.At(3); got != V(0, 0, 3) {
		t.Errorf("At = %v (direction must be normalized)", got)
	}
}

func TestAABBHitRay(t *testing.T) {
	box := AABB{Min: V(-1, -1, -1), Max: V(1, 1, 1)}
	cases := []struct {
		name string
		ray  Ray
		want bool
	}{
		{"through center", NewRay(V(0, 0, -5), V(0, 0, 1)), true},
		{"away", NewRay(V(0, 0, -5), V(0, 0, -1)), false},
		{"miss offset", NewRay(V(5, 5, -5), V(0, 0, 1)), false},
		{"diagonal hit", NewRay(V(-5, -5, -5), V(1, 1, 1)), true},
		{"from inside", NewRay(V(0, 0, 0), V(1, 0, 0)), true},
		{"axis-parallel skim outside", NewRay(V(2, 0, -5), V(0, 0, 1)), false},
	}
	for _, c := range cases {
		if got := box.HitRay(c.ray, 1e-4, InfinityT); got != c.want {
			t.Errorf("%s: HitRay = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAABBOps(t *testing.T) {
	a := AABB{Min: V(0, 0, 0), Max: V(1, 1, 1)}
	b := AABB{Min: V(2, 2, 2), Max: V(3, 3, 3)}
	u := a.Union(b)
	if u.Min != V(0, 0, 0) || u.Max != V(3, 3, 3) {
		t.Errorf("Union = %v", u)
	}
	if got := a.Centroid(); got != V(0.5, 0.5, 0.5) {
		t.Errorf("Centroid = %v", got)
	}
	if !a.Contains(V(0.5, 0.5, 0.5)) || a.Contains(V(2, 0, 0)) {
		t.Error("Contains wrong")
	}
	if got := a.SurfaceArea(); got != 6 {
		t.Errorf("SurfaceArea = %v, want 6", got)
	}
	if EmptyAABB().SurfaceArea() != 0 {
		t.Error("empty box must have zero area")
	}
	wide := AABB{Min: V(0, 0, 0), Max: V(10, 1, 2)}
	if wide.LongestAxis() != 0 {
		t.Errorf("LongestAxis = %d, want 0", wide.LongestAxis())
	}
	empty := EmptyAABB()
	grown := empty.GrowPoint(V(1, 2, 3))
	if grown.Min != V(1, 2, 3) || grown.Max != V(1, 2, 3) {
		t.Errorf("GrowPoint from empty = %v", grown)
	}
}

func TestTriangleIntersect(t *testing.T) {
	tri := Triangle{V0: V(-1, -1, 0), V1: V(1, -1, 0), V2: V(0, 1, 0), Material: 3}
	// Straight-on hit through the centroid.
	if d, ok := tri.Intersect(NewRay(V(0, 0, -2), V(0, 0, 1)), 1e-4, InfinityT); !ok || math.Abs(float64(d)-2) > 1e-5 {
		t.Errorf("center hit: d=%v ok=%v", d, ok)
	}
	// Miss outside the triangle.
	if _, ok := tri.Intersect(NewRay(V(5, 5, -2), V(0, 0, 1)), 1e-4, InfinityT); ok {
		t.Error("offset ray should miss")
	}
	// Behind the origin.
	if _, ok := tri.Intersect(NewRay(V(0, 0, -2), V(0, 0, -1)), 1e-4, InfinityT); ok {
		t.Error("backwards ray should miss")
	}
	// Parallel to the plane.
	if _, ok := tri.Intersect(NewRay(V(0, 0, 1), V(1, 0, 0)), 1e-4, InfinityT); ok {
		t.Error("parallel ray should miss")
	}
	// tmax clipping.
	if _, ok := tri.Intersect(NewRay(V(0, 0, -2), V(0, 0, 1)), 1e-4, 1.0); ok {
		t.Error("hit beyond tmax should be rejected")
	}
	// Bounds and centroid.
	bb := tri.Bounds()
	if bb.Min != V(-1, -1, 0) || bb.Max != V(1, 1, 0) {
		t.Errorf("Bounds = %v", bb)
	}
	c := tri.Centroid()
	if math.Abs(float64(c.X)) > 1e-6 || math.Abs(float64(c.Y+1.0/3.0)) > 1e-6 {
		t.Errorf("Centroid = %v", c)
	}
}

// randomScene builds n random triangles in the unit-ish cube.
func randomScene(rng *rand.Rand, n int) []Triangle {
	tris := make([]Triangle, n)
	for i := range tris {
		base := V(rng.Float32()*10-5, rng.Float32()*10-5, rng.Float32()*10-5)
		tris[i] = Triangle{
			V0:       base,
			V1:       base.Add(V(rng.Float32(), rng.Float32(), rng.Float32())),
			V2:       base.Add(V(rng.Float32(), rng.Float32(), rng.Float32())),
			Material: rng.Intn(8),
		}
	}
	return tris
}

func TestBVHBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 4, 5, 17, 100, 333} {
		bvh := BuildBVH(randomScene(rng, n))
		if bvh.NumTriangles() != n {
			t.Fatalf("n=%d: NumTriangles = %d", n, bvh.NumTriangles())
		}
		if err := bvh.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > maxLeafSize && bvh.Depth() < 2 {
			t.Errorf("n=%d: depth = %d, expected an actual tree", n, bvh.Depth())
		}
		if bvh.Stats() == "" {
			t.Error("empty Stats")
		}
	}
}

func TestBVHMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bvh := BuildBVH(randomScene(rng, 200))
	misses, hits := 0, 0
	for i := 0; i < 500; i++ {
		origin := V(rng.Float32()*20-10, rng.Float32()*20-10, rng.Float32()*20-10)
		dir := V(rng.Float32()*2-1, rng.Float32()*2-1, rng.Float32()*2-1)
		if dir.Len() == 0 {
			continue
		}
		ray := NewRay(origin, dir)
		got := bvh.Traverse(ray, 1e-4, InfinityT)
		want := bvh.BruteForce(ray, 1e-4, InfinityT)
		if got.Ok != want.Ok {
			t.Fatalf("ray %d: hit mismatch got %v want %v", i, got.Ok, want.Ok)
		}
		if got.Ok {
			hits++
			if math.Abs(float64(got.T-want.T)) > 1e-3 {
				t.Fatalf("ray %d: T mismatch got %v want %v", i, got.T, want.T)
			}
			if got.Material != want.Material {
				// Same T can belong to overlapping triangles with
				// different materials; only flag clear mismatches.
				if math.Abs(float64(got.T-want.T)) > 1e-5 {
					t.Fatalf("ray %d: material mismatch", i)
				}
			}
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate test: hits=%d misses=%d", hits, misses)
	}
}

func TestBVHTraversalCheaperThanBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bvh := BuildBVH(randomScene(rng, 1000))
	var bvhSteps, bruteSteps int
	for i := 0; i < 200; i++ {
		ray := NewRay(
			V(rng.Float32()*20-10, rng.Float32()*20-10, -20),
			V(rng.Float32()-0.5, rng.Float32()-0.5, 1),
		)
		bvhSteps += bvh.Traverse(ray, 1e-4, InfinityT).Steps
		bruteSteps += bvh.BruteForce(ray, 1e-4, InfinityT).Steps
	}
	if bvhSteps*2 >= bruteSteps {
		t.Errorf("BVH not pruning: %d steps vs brute %d", bvhSteps, bruteSteps)
	}
}

func TestEmptyBVHTraversal(t *testing.T) {
	bvh := BuildBVH(nil)
	hit := bvh.Traverse(NewRay(V(0, 0, 0), V(0, 0, 1)), 1e-4, InfinityT)
	if hit.Ok || hit.Steps != 1 || hit.Material != -1 {
		t.Errorf("empty scene hit = %+v", hit)
	}
	if err := bvh.Validate(); err != nil {
		t.Errorf("empty BVH should validate: %v", err)
	}
}

func TestCoreLatencyAndMemo(t *testing.T) {
	tri := Triangle{V0: V(-1, -1, 5), V1: V(1, -1, 5), V2: V(0, 1, 5), Material: 2}
	bvh := BuildBVH([]Triangle{tri})
	gen := func(id uint32) Ray {
		if id == 0 {
			return NewRay(V(0, 0, 0), V(0, 0, 1)) // hit
		}
		return NewRay(V(0, 0, 0), V(0, 0, -1)) // miss
	}
	table := NewHitTable(bvh, 2)
	if table == nil || table.Len() != 2 {
		t.Fatalf("NewHitTable = %v", table)
	}
	for _, tc := range []struct {
		name  string
		table *HitTable
	}{{"direct", nil}, {"table", table}} {
		core := NewCore(bvh, gen, tc.table, 200, 24)
		mat, steps, lat := core.Trace(0)
		want := bvh.Traverse(gen(0), 1e-4, InfinityT)
		if mat != 2 || steps != want.Steps {
			t.Fatalf("%s: trace 0 = (%d, %d), want (2, %d)", tc.name, mat, steps, want.Steps)
		}
		if lat != 200+24*int64(steps) {
			t.Errorf("%s: latency = %d, want base+steps*per", tc.name, lat)
		}
		if mat, _, _ := core.Trace(1); mat != MissMaterial {
			t.Fatalf("%s: trace 1 material = %d, want miss", tc.name, mat)
		}
		// Repeated traces (from the table's slot once it is filled)
		// return the same result.
		mat2, steps2, lat2 := core.Trace(0)
		if mat2 != mat || steps2 != steps || lat2 != lat {
			t.Errorf("%s: repeated trace differs", tc.name)
		}
	}
}

// The table traverses each in-range ray once, across every Core that
// shares it; IDs beyond the table fall back to direct traversal every
// time, with the same results.
func TestHitTableSharedAndOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bvh := BuildBVH(randomScene(rng, 200))
	calls := map[uint32]int{}
	gen := func(id uint32) Ray {
		calls[id]++
		h := float32(id%97) / 97
		return NewRay(V(h*10-5, -5, -20), V(0.01*float32(id%13), 0.02, 1))
	}
	const inRange = 64
	table := NewHitTable(bvh, inRange)
	a := NewCore(bvh, gen, table, 100, 7)
	b := NewCore(bvh, gen, table, 100, 7)
	for _, id := range []uint32{0, 1, 63, 64, 65, 1 << 20, math.MaxUint32} {
		want := bvh.Traverse(gen(id), 1e-4, InfinityT)
		calls[id] = 0
		for _, core := range []*Core{a, b, a} {
			mat, steps, lat := core.Trace(id)
			if mat != want.Material || steps != want.Steps || lat != 100+7*int64(want.Steps) {
				t.Fatalf("ray %d: got (%d, %d, %d), want %+v", id, mat, steps, lat, want)
			}
		}
		wantCalls := 3
		if id < inRange {
			wantCalls = 1
		}
		if calls[id] != wantCalls {
			t.Errorf("ray %d generated %d times, want %d", id, calls[id], wantCalls)
		}
	}
	if table.Len() != inRange {
		t.Errorf("table grew to %d slots", table.Len())
	}
}

func TestNewHitTableGuards(t *testing.T) {
	tri := func(m int) Triangle {
		return Triangle{V0: V(-1, -1, 5), V1: V(1, -1, 5), V2: V(0, 1, 5), Material: m}
	}
	cases := []struct {
		name string
		bvh  *BVH
		rays int
		ok   bool
	}{
		{"empty scene", BuildBVH(nil), 4, true},
		{"max material", BuildBVH([]Triangle{tri(maxPackedMaterial)}), 4, true},
		{"material too large", BuildBVH([]Triangle{tri(maxPackedMaterial + 1)}), 4, false},
		{"negative material", BuildBVH([]Triangle{tri(-1)}), 4, false},
		{"no rays", BuildBVH([]Triangle{tri(0)}), 0, false},
	}
	gen := func(uint32) Ray { return NewRay(V(0, 0, 0), V(0, 0, 1)) }
	for _, c := range cases {
		table := NewHitTable(c.bvh, c.rays)
		if got := table != nil; got != c.ok {
			t.Errorf("%s: table built = %v, want %v", c.name, got, c.ok)
		}
		if table == nil {
			continue
		}
		// Whatever the guard admits round-trips through the packing.
		want := c.bvh.Traverse(gen(0), 1e-4, InfinityT)
		if mat, steps, _ := NewCore(c.bvh, gen, table, 0, 1).Trace(0); mat != want.Material || steps != want.Steps {
			t.Errorf("%s: packed trace = (%d, %d), want %+v", c.name, mat, steps, want)
		}
	}
}

// Property: traversal and brute force agree on hit/miss for arbitrary
// rays against a fixed random scene.
func TestQuickTraversalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bvh := BuildBVH(randomScene(rng, 64))
	f := func(ox, oy, oz, dx, dy, dz int8) bool {
		dir := V(float32(dx), float32(dy), float32(dz))
		if dir.Len() == 0 {
			return true
		}
		ray := NewRay(V(float32(ox)/8, float32(oy)/8, float32(oz)/8), dir)
		got := bvh.Traverse(ray, 1e-4, InfinityT)
		want := bvh.BruteForce(ray, 1e-4, InfinityT)
		if got.Ok != want.Ok {
			return false
		}
		return !got.Ok || math.Abs(float64(got.T-want.T)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

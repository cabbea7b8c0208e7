package baseline_test

import (
	"sync"
	"testing"

	"blinkdb/internal/experiments"
	"blinkdb/internal/sample"
)

// The §6.3 comparison strategies other than OLA are built by
// experiments.NewEnv, so their tests run against the environment the
// evaluation actually uses. One Conviva environment serves both tests.
var (
	envOnce sync.Once
	env     *experiments.Env
	envErr  error
)

func quickEnv(t *testing.T) *experiments.Env {
	t.Helper()
	envOnce.Do(func() {
		env, envErr = experiments.NewEnv(experiments.Quick(), "conviva", 17e12)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return env
}

// TestUniformOnly pins the "random samples" strategy: one uniform family
// holding half the table, over the same geometric resolution ladder
// (ratio 2, up to 8 resolutions, min cap 2) NewEnv gives stratified
// families.
func TestUniformOnly(t *testing.T) {
	env := quickEnv(t)
	entry, err := env.Catalog[experiments.Uniform].Lookup(env.Data.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Families) != 1 || !entry.Families[0].IsUniform() {
		t.Fatalf("uniform catalog holds %d families, want one uniform family", len(entry.Families))
	}
	fam := entry.Families[0]
	half := env.Data.Table.NumRows() / 2
	if got := fam.Largest().Rows(); got != half {
		t.Errorf("largest = %d rows, want %d", got, half)
	}
	if got, want := fam.Resolutions(), len(sample.GeometricCaps(half, 2, 8, 2)); got != want {
		t.Errorf("resolutions = %d, want %d", got, want)
	}
}

// TestSingleColumnRestriction pins the single-dimension (Babcock-style)
// strategy: every family its plan chooses stratifies on one column.
func TestSingleColumnRestriction(t *testing.T) {
	plan := quickEnv(t).Plans[experiments.SingleDim]
	if len(plan.Chosen) == 0 {
		t.Fatal("single-dimension plan chose no family")
	}
	for _, c := range plan.Chosen {
		if c.Phi.Len() != 1 {
			t.Errorf("single-column baseline built %v", c.Phi)
		}
	}
}

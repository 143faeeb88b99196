package governor

import "testing"

// StableFraction is the per-state view of convergence: states stop
// counting as stable the epoch their greedy action flips, and the
// fraction only reaches 1 once every state has held for a full window.
func TestConvergenceStableFraction(t *testing.T) {
	c := NewConvergenceTracker(3, 4)
	if f := c.StableFraction(); f != 0 {
		t.Fatalf("fresh tracker StableFraction = %v", f)
	}

	// Four states, constant policy: nothing is stable until the window
	// has been seen, then everything is.
	for i := 0; i < 2; i++ {
		c.EndEpoch()
		if f := c.StableFraction(); f != 0 {
			t.Fatalf("after %d epochs (window 3) StableFraction = %v, want 0", i+1, f)
		}
	}
	c.EndEpoch()
	if f := c.StableFraction(); f != 1 {
		t.Fatalf("constant policy after full window: StableFraction = %v, want 1", f)
	}

	// One state flips: 3/4 remain stable, and the flipped one needs a
	// fresh window to recover.
	c.Flip(3)
	c.EndEpoch()
	if f := c.StableFraction(); f != 0.75 {
		t.Fatalf("after one flip StableFraction = %v, want 0.75", f)
	}
	c.EndEpoch()
	if f := c.StableFraction(); f != 0.75 {
		t.Fatalf("flip recovering: StableFraction = %v, want 0.75", f)
	}
	c.EndEpoch()
	if f := c.StableFraction(); f != 1 {
		t.Fatalf("flip recovered: StableFraction = %v, want 1", f)
	}

	// Reset clears the view.
	c.Reset()
	if f := c.StableFraction(); f != 0 {
		t.Fatalf("after Reset StableFraction = %v", f)
	}
}

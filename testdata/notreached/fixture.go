// Package fixture is the negative test of the notreached check: each line
// marked "// want: text" must draw a diagnostic containing text, and no
// other line may draw one.
package fixture

// jump stands in for a control-transfer primitive. Terminal.
func jump() {}

// Kernel has a terminal method.
type Kernel struct{}

// Block blocks the current thread. Terminal.
func (Kernel) Block() {}

// Other has a same-named method that is not terminal: calls are resolved
// by type, not by name.
type Other struct{}

// Block is an ordinary method.
func (Other) Block() {}

func work() {}

// missingReturn falls through a terminal call.
func missingReturn(c bool) {
	if c {
		jump() // want: call to terminal jump is not followed by return
	}
	work()
}

// loopTail reaches a terminal call at the end of a loop body, which runs
// the loop again instead of leaving the function.
func loopTail(k Kernel) {
	for i := 0; i < 2; i++ {
		k.Block() // want: call to terminal Block is not followed by return
	}
}

// helper ends in a terminal call but is unmarked, so its callers would
// not know to return after it.
func helper(k Kernel) { // want: helper ends in terminal Block but is not marked Terminal.
	work()
	k.Block()
}

// correct uses every accepted form. Terminal.
func correct(k Kernel, o Other, n int) {
	o.Block()
	work()
	if n == 0 {
		jump()
		return
	}
	for i := 0; i < n; i++ {
		if i == 3 {
			k.Block()
			return
		}
	}
	switch n {
	case 1:
		jump()
	default:
		if n > 5 {
			k.Block()
		} else {
			func() { jump() }()
			jump()
		}
	}
}

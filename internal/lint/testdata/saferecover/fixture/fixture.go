// Package fixture exercises saferecover: bare recovers in deferred closures
// and expression statements draw findings; directive-covered boundaries (same
// line or line above, justification required) and shadowing functions named
// recover do not.
package fixture

import "fmt"

func bareDeferredRecover() (err error) {
	defer func() {
		if r := recover(); r != nil { // want `bare recover\(\) outside a sanctioned boundary`
			err = fmt.Errorf("recovered: %v", r)
		}
	}()
	return nil
}

func swallowedRecover() {
	defer func() {
		recover() // want `bare recover\(\) outside a sanctioned boundary`
	}()
}

func sanctionedSameLine() (err error) {
	defer func() {
		//dosn:recover worker boundary: panic becomes the batch error
		if r := recover(); r != nil {
			err = fmt.Errorf("worker: %v", r)
		}
	}()
	return nil
}

func sanctionedTrailing() {
	defer func() {
		_ = recover() //dosn:recover advisory warm-up: the owner reruns the compute
	}()
}

func directiveWithoutJustification() {
	defer func() {
		//dosn:recover
		recover() // want `bare recover\(\) outside a sanctioned boundary`
	}()
}

// recover shadows the builtin in this scope; calling it is not a panic
// boundary and must not be flagged.
func shadowingFunc() {
	recover := func() int { return 1 }
	_ = recover()
}

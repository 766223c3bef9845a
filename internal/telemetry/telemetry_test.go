package telemetry

import "testing"

func TestWithDefault(t *testing.T) {
	if Hub() != nil {
		t.Fatal("process hub not nil at test start")
	}
	tel := &Telemetry{Metrics: NewRegistry()}
	WithDefault(tel, func() {
		if Hub() != tel {
			t.Error("hub not installed inside fn")
		}
	})
	if Hub() != nil {
		t.Error("hub not restored after fn")
	}
}

func TestWithDefaultNests(t *testing.T) {
	outer := &Telemetry{Metrics: NewRegistry()}
	inner := &Telemetry{Metrics: NewRegistry()}
	WithDefault(outer, func() {
		WithDefault(inner, func() {
			if Hub() != inner {
				t.Error("inner hub not installed")
			}
		})
		if Hub() != outer {
			t.Error("outer hub not restored after inner fn")
		}
	})
}

func TestWithDefaultRestoresOnPanic(t *testing.T) {
	tel := &Telemetry{Metrics: NewRegistry()}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		WithDefault(tel, func() { panic("boom") })
	}()
	if Hub() != nil {
		t.Error("hub leaked after panicking fn")
	}
}

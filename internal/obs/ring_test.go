package obs

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/machine"
)

func TestSlotIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 40 {
		t.Fatalf("slot is %d bytes, want 40", n)
	}
}

// TestRingMatchesReferenceModel drives rings of several capacities —
// within one chunk, exactly one chunk, straddling chunk boundaries —
// past zero, one and several wraps, and compares the read-back against a
// plain slice holding every event: same events in the same order, Seq
// counting from the first event ever emitted, Dropped the evicted count.
func TestRingMatchesReferenceModel(t *testing.T) {
	details := []func(i int) Detail{
		func(i int) Detail { return Text(fmt.Sprintf("note %d", i%7)) },
		func(i int) Detail { return From(i%5+1, fmt.Sprintf("t%d", i%5+1)) },
		func(i int) Detail { return To(i%3+1, fmt.Sprintf("t%d", i%3+1)) },
		func(i int) Detail { return BlockedWith(i%4+1, fmt.Sprintf("t%d", i%4+1), "cont_"+strconv.Itoa(i%2)) },
		func(i int) Detail { return Parks(i%6+1, fmt.Sprintf("t%d", i%6+1), i%2) },
		func(i int) Detail { return SyscallReturn(uint64(i) * 0x9e3779b97f4a7c15) },
		func(i int) Detail { return Bytes(i * 8) },
		func(int) Detail { return Detail{} },
	}
	for _, capacity := range []int{1, 3, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 5} {
		for _, total := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			clock := machine.NewClock()
			r := NewRecorder(clock, capacity)
			var ref []Event
			for i := 0; i < total; i++ {
				kind := Kind(i % NumKinds)
				tid := i%9 + 1
				thread := fmt.Sprintf("t%d", tid)
				cont := ""
				if i%3 == 0 {
					cont = "cont_" + strconv.Itoa(i%4)
				}
				d := details[i%len(details)](i)
				arg := i % 11
				r.EmitDetail(kind, tid, thread, cont, d, arg)
				ref = append(ref, Event{Seq: uint64(i), When: clock.Now(), Kind: kind,
					TID: tid, Arg: arg, Thread: thread, Cont: cont, Detail: d.String()})
				clock.Advance(machine.Duration(i%4 + 1))
			}
			keep := min(total, capacity)
			want := ref[len(ref)-keep:]
			got := r.Events()
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("cap %d, %d events: read-back differs from the reference model", capacity, total)
			}
			if r.Len() != keep {
				t.Fatalf("cap %d, %d events: Len = %d, want %d", capacity, total, r.Len(), keep)
			}
			if want := uint64(total - keep); r.Dropped != want {
				t.Fatalf("cap %d, %d events: Dropped = %d, want %d", capacity, total, r.Dropped, want)
			}
			// Retention is allocated a chunk at a time as events arrive,
			// the last chunk cut to the capacity.
			slots := 0
			for _, c := range r.chunks {
				slots += len(c)
			}
			if want := min((keep+chunkLen-1)/chunkLen*chunkLen, capacity); slots != want {
				t.Fatalf("cap %d, %d events: %d slots allocated, want %d", capacity, total, slots, want)
			}
		}
	}
}

// TestDetailFormsMatchEagerText checks every read-back detail form
// against the string its emit site used to build eagerly.
func TestDetailFormsMatchEagerText(t *testing.T) {
	cases := []struct {
		d    Detail
		want string
	}{
		{Text("mach_msg(rpc)"), "mach_msg(rpc)"},
		{Text(""), ""},
		{From(3, "task/srv"), "from " + "task/srv"},
		{To(4, "net-client/cli"), "to " + "net-client/cli"},
		{BlockedWith(5, "server/server", "mach_msg_continue"), "server/server" + " blocked with " + "mach_msg_continue"},
		{Parks(6, "rd", 0), fmt.Sprintf("%s blocked; processor %d parks", "rd", 0)},
		{Parks(6, "rd", 17), fmt.Sprintf("%s blocked; processor %d parks", "rd", 17)},
		{SyscallReturn(0), "syscall return " + strconv.FormatUint(0, 10)},
		{SyscallReturn(math.MaxUint64), "syscall return " + strconv.FormatUint(math.MaxUint64, 10)},
		{Bytes(24), strconv.Itoa(24) + " bytes"},
		{Bytes(0), strconv.Itoa(0) + " bytes"},
		{Bytes(-1), strconv.Itoa(-1) + " bytes"},
	}
	r := NewRecorder(machine.NewClock(), 64)
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
		r.EmitDetail(Note, 1, "t", "", c.d, 0)
	}
	for i, ev := range r.Events() {
		if ev.Detail != cases[i].want {
			t.Errorf("read-back detail %d = %q, want %q", i, ev.Detail, cases[i].want)
		}
	}
}

// TestThreadNamesKeyedByTID covers the dense thread-name table: a thread
// id seen under more than one name (tid 0 is shared by interrupt
// context and parked processors) reads back each event's own name.
func TestThreadNamesKeyedByTID(t *testing.T) {
	r := NewRecorder(machine.NewClock(), 16)
	names := []string{"<parked>", "", "<parked>", "irq", "<parked>", "irq"}
	for _, n := range names {
		r.Emit(Interrupt, 0, n, "", "disk read")
	}
	r.EmitDetail(StackHandoff, 2, "b", "", From(0, "irq"), 0)
	evs := r.Events()
	for i, n := range names {
		if evs[i].Thread != n {
			t.Fatalf("event %d thread = %q, want %q", i, evs[i].Thread, n)
		}
	}
	if evs[len(names)].Detail != "from irq" {
		t.Fatalf("detail = %q", evs[len(names)].Detail)
	}
	// Alternating names fall back to the intern map rather than growing
	// the table per event.
	size := len(r.strs)
	for i := 0; i < 10; i++ {
		for _, n := range names {
			r.Emit(Interrupt, 0, n, "", "disk read")
		}
	}
	if len(r.strs) != size {
		t.Fatalf("string table grew from %d to %d entries: %q", size, len(r.strs), r.strs)
	}
}

func TestResetClearsInternTables(t *testing.T) {
	r := NewRecorder(machine.NewClock(), 8)
	r.Emit(ThreadBlocked, 1, "a", "cont_a", "message receive")
	r.EmitDetail(Block, 2, "b", "", BlockedWith(1, "a", "cont_a"), 0)
	r.Reset()
	if len(r.strs) != 1 || len(r.strIDs) != 0 || len(r.tidName) != 0 || len(r.profs) != 0 {
		t.Fatalf("tables after reset: %d strings, %d ids, %d tids, %d profiles",
			len(r.strs), len(r.strIDs), len(r.tidName), len(r.profs))
	}
	if r.Profile("cont_a") != nil {
		t.Fatal("profile survived reset")
	}
	// Reused ids must not resurrect old names.
	r.Emit(Note, 1, "z", "", "fresh")
	ev := r.Events()[0]
	if ev.Thread != "z" || ev.Detail != "fresh" || ev.Cont != "" {
		t.Fatalf("post-reset event = %+v", ev)
	}
}

// TestWrappedRingEmitsWithoutAllocating is the unit-level form of the
// traced 0 allocs/op gate: once the ring has wrapped and the strings are
// interned, emitting allocates nothing.
func TestWrappedRingEmitsWithoutAllocating(t *testing.T) {
	r := NewRecorder(machine.NewClock(), chunkLen+3)
	emit := func() {
		r.Emit(ThreadBlocked, 1, "a", "cont_a", "message receive")
		r.EmitDetail(StackHandoff, 2, "b", "cont_b", From(1, "a"), 1)
		r.EmitDetail(Block, 2, "b", "", BlockedWith(1, "a", "cont_a"), 0)
		r.EmitDetail(CopyOut, 2, "b", "", Bytes(24), 0)
	}
	for r.Dropped == 0 {
		emit()
	}
	if n := testing.AllocsPerRun(100, emit); n != 0 {
		t.Fatalf("wrapped ring: %v allocs per emit round, want 0", n)
	}
}

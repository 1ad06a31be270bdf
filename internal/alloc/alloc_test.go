package alloc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestTaskRef(t *testing.T) {
	if NoTask.Valid() {
		t.Error("NoTask is valid")
	}
	if !(TaskRef{Job: 0, Task: 0}).Valid() {
		t.Error("zero ref invalid")
	}
	if (TaskRef{Job: -1, Task: 3}).Valid() {
		t.Error("negative job valid")
	}
}

func TestTriggerString(t *testing.T) {
	names := map[Trigger]string{
		TrigArrival:    "arrival",
		TrigCompletion: "completion",
		TrigDemandUp:   "demand-up",
		TrigProcFree:   "proc-free",
		TrigQuantum:    "quantum",
	}
	for trig, want := range names {
		if got := trig.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", trig, got, want)
		}
	}
	if Trigger(42).String() == "" {
		t.Error("unknown trigger empty")
	}
}

func TestNewState(t *testing.T) {
	s := NewState(4, 3)
	if s.Procs != 4 || s.NumJobs() != 3 {
		t.Fatalf("dims wrong: %d procs %d jobs", s.Procs, s.NumJobs())
	}
	for p := 0; p < 4; p++ {
		if s.ProcJob[p] != -1 {
			t.Errorf("proc %d not unassigned", p)
		}
		if s.ProcLastTask[p].Valid() {
			t.Errorf("proc %d has a last task", p)
		}
	}
	if len(s.UnassignedProcs()) != 4 {
		t.Errorf("UnassignedProcs = %v", s.UnassignedProcs())
	}
}

func TestActiveJobsAndFairShare(t *testing.T) {
	s := NewState(16, 4)
	if s.FairShare() != 0 {
		t.Errorf("FairShare with no active jobs = %v", s.FairShare())
	}
	s.Active[1] = true
	s.Active[3] = true
	got := s.ActiveJobs()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ActiveJobs = %v", got)
	}
	if s.FairShare() != 8 {
		t.Errorf("FairShare = %v", s.FairShare())
	}
}

func TestRequestersOrderedByCredit(t *testing.T) {
	s := NewState(8, 3)
	for j := 0; j < 3; j++ {
		s.Active[j] = true
		s.Demand[j] = 5
		s.Alloc[j] = 1
	}
	s.Credit[0] = 1
	s.Credit[1] = 5
	s.Credit[2] = 3
	got := s.Requesters()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("Requesters = %v, want [1 2 0]", got)
	}
	// Satisfied jobs are excluded.
	s.Alloc[1] = 5
	got = s.Requesters()
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("Requesters = %v, want [2 0]", got)
	}
	// Ties break by job ID.
	s.Credit[0], s.Credit[2] = 3, 3
	got = s.Requesters()
	if got[0] != 0 || got[1] != 2 {
		t.Errorf("tie-break wrong: %v", got)
	}
}

func TestSupplies(t *testing.T) {
	s := NewState(5, 2)
	s.Active[0], s.Active[1] = true, true
	s.Assign(0, 0)
	s.Assign(1, 0)
	s.Assign(2, 1)
	s.ProcYield[1] = true
	s.ProcYield[2] = true
	if got := s.UnassignedProcs(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("UnassignedProcs = %v", got)
	}
	if got := s.YieldingProcs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("YieldingProcs = %v", got)
	}
	if got := s.ProcsOf(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ProcsOf(0) = %v", got)
	}
}

func TestLargestAllocJob(t *testing.T) {
	s := NewState(10, 3)
	s.Active[0], s.Active[1], s.Active[2] = true, true, true
	s.Alloc[0], s.Alloc[1], s.Alloc[2] = 2, 5, 3
	if got := s.LargestAllocJob(-1); got != 1 {
		t.Errorf("LargestAllocJob = %d", got)
	}
	if got := s.LargestAllocJob(1); got != 2 {
		t.Errorf("LargestAllocJob(except 1) = %d", got)
	}
	s.Active[1] = false
	if got := s.LargestAllocJob(-1); got != 2 {
		t.Errorf("inactive job selected: %d", got)
	}
	empty := NewState(4, 2)
	if got := empty.LargestAllocJob(-1); got != -1 {
		t.Errorf("empty LargestAllocJob = %d", got)
	}
}

func TestAssignMaintainsCounts(t *testing.T) {
	s := NewState(4, 2)
	s.Active[0], s.Active[1] = true, true
	s.Assign(0, 0)
	s.Assign(1, 0)
	if s.Alloc[0] != 2 {
		t.Fatalf("Alloc[0] = %d", s.Alloc[0])
	}
	s.Assign(1, 1) // move
	if s.Alloc[0] != 1 || s.Alloc[1] != 1 {
		t.Fatalf("after move: %v", s.Alloc)
	}
	s.ProcYield[1] = true
	s.Assign(1, 1) // same job: no-op
	if !s.ProcYield[1] {
		t.Error("same-job Assign cleared yield")
	}
	s.Assign(1, -1) // release
	if s.Alloc[1] != 0 || s.ProcJob[1] != -1 {
		t.Fatalf("after release: alloc=%v procjob=%v", s.Alloc, s.ProcJob)
	}
}

// Property: after arbitrary Assign sequences, Alloc[j] always equals the
// number of processors whose ProcJob is j.
func TestQuickAssignConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed, 7)
		s := NewState(6, 3)
		for i := 0; i < 200; i++ {
			s.Assign(rng.Intn(6), rng.Intn(4)-1)
			counts := make([]int, 3)
			for _, j := range s.ProcJob {
				if j >= 0 {
					counts[j]++
				}
			}
			for j := 0; j < 3; j++ {
				if counts[j] != s.Alloc[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAssignRecordsOverwritten checks that Assign records every entry it
// changes (and only those), and that ClearOverwritten and Reset forget.
func TestAssignRecordsOverwritten(t *testing.T) {
	s := NewState(4, 3)
	s.Assign(2, 1)  // unassigned -> job 1
	s.Assign(2, 1)  // no change
	s.Assign(2, 0)  // job 1 -> job 0
	s.Assign(3, -1) // no change
	procs, jobs := s.Overwritten()
	if fmt.Sprint(procs) != "[2 2]" || fmt.Sprint(jobs) != "[1 1 0]" {
		t.Fatalf("Overwritten() = %v, %v; want [2 2], [1 1 0]", procs, jobs)
	}
	s.ClearOverwritten()
	if procs, jobs := s.Overwritten(); len(procs)+len(jobs) != 0 {
		t.Fatalf("after ClearOverwritten: %v, %v", procs, jobs)
	}
	s.Assign(0, 2)
	s.Reset(4, 3)
	if procs, jobs := s.Overwritten(); len(procs)+len(jobs) != 0 {
		t.Fatalf("after Reset: %v, %v", procs, jobs)
	}
}

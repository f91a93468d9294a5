package repro_test

import (
	"testing"

	"repro"
	"repro/internal/strategy"
)

// TestFacadeEndToEnd exercises the public API the README's quickstart
// shows: job building, environment construction, one-shot scheduling, and
// the full VO.
func TestFacadeEndToEnd(t *testing.T) {
	b := repro.NewJob("facade").Deadline(60)
	prep := b.Task("prep", 3, 30)
	analyze := b.Task("analyze", 5, 50)
	b.Link("d", prep, analyze, 2, 10)
	job := b.MustBuild()

	env := repro.NewEnvironment([]*repro.Node{
		repro.NewNode(0, "fast", 1.0, "site"),
		repro.NewNode(1, "slow", 0.33, "site"),
	})

	sched, err := repro.BuildSchedule(env, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Placements) != 2 || !sched.MeetsDeadline() {
		t.Fatalf("schedule = %+v", sched)
	}
	if sched.Cost <= 0 {
		t.Error("no cost computed")
	}
}

func TestFacadeStrategyGenerator(t *testing.T) {
	gen := repro.NewWorkload(repro.DefaultWorkload(1))
	env := gen.Environment(1)
	job := gen.Job(0)

	sg := &repro.StrategyGenerator{Env: env}
	st, err := sg.Generate(job, repro.S1, repro.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Distributions)+len(st.FailedLevels) != 4 {
		t.Errorf("levels accounted = %d", len(st.Distributions)+len(st.FailedLevels))
	}
	if st.Admissible() {
		if d := st.CheapestAdmissible(); d == nil {
			t.Error("admissible strategy with no pick")
		}
	}
}

func TestFacadeVO(t *testing.T) {
	gen := repro.NewWorkload(repro.DefaultWorkload(2))
	env := gen.Environment(2)
	engine := repro.NewEngine()
	vo := repro.NewVO(engine, env, repro.VOConfig{Seed: 2})
	for _, a := range gen.Flow(0, 10, 0) {
		vo.Submit(a.Job, repro.S2, a.At)
	}
	engine.Run()
	if len(vo.Results()) != 10 {
		t.Fatalf("results = %d", len(vo.Results()))
	}
}

func TestFacadeConstantsMatch(t *testing.T) {
	if repro.S1 != strategy.S1 || repro.MS1 != strategy.MS1 {
		t.Error("facade constants diverge")
	}
	if repro.Version == "" {
		t.Error("empty version")
	}
}

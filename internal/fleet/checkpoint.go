package fleet

import (
	"pricepower/internal/task"
	"pricepower/internal/telemetry/trace"
)

// Checkpoint is a board's compact restart image. The board goroutine
// keeps one and refolds it in place at the end of every successful step
// (and after a drain); when a step crashes, the board freezes a copy and
// its crashed replies carry that copy to the supervisor. It holds exactly
// what the supervisor needs to resurrect the board's *work* — the
// resident task specs with their causal trace IDs — and the board's
// completed-task count, stamped with the barrier the image covers.
// Finished tasks are retired at the end of their batch, so an image never
// holds one: a restart cannot re-run a finished task. The restarted board
// itself boots fresh under a derived restart-epoch seed; the checkpointed
// tasks re-enter the dispatcher rather than being teleported onto the new
// platform, so restart placement follows the same price routing as any
// admission.
type Checkpoint struct {
	Batch int // barrier the image covers (the last collected step)
	// Completed is the board's cumulative completed-task count at the
	// fold; the restarted board resumes from it.
	Completed int
	Tasks     []CheckpointTask
}

// CheckpointTask is one resident task in a checkpoint: the spec the
// dispatcher re-places plus the causal trace ID that keeps the task's
// timeline continuous across the crash (0 when untraced).
type CheckpointTask struct {
	Spec  task.Spec
	Trace trace.ID
}

// clone copies the image into task storage of its own (the specs' name
// and phase storage is immutable and stays shared). A nil image — the
// pre-first-barrier state: nothing resident — clones to nil.
func (c *Checkpoint) clone() *Checkpoint {
	if c == nil {
		return nil
	}
	cp := *c
	cp.Tasks = append([]CheckpointTask(nil), c.Tasks...)
	return &cp
}

(** Bounded stateless model checking of simulated algorithms.

    [exhaustive] enumerates interleavings (schedules) of the spawned
    processes. Continuations cannot be cloned, so branching requires
    re-running the simulation from scratch — but unlike the seed
    implementation, which replayed the whole prefix at {e every} DFS node
    (O(depth²) simulator turns per schedule), the engine enumerates
    schedules in leaf order with an explicit branch stack: the live
    simulator is stepped forward along the current path and a prefix is
    replayed only when backtracking to a node's next untried sibling, so a
    maximal schedule costs O(depth) turns.

    Two further accelerators are available:

    - [~por:true] enables conflict-based partial-order reduction (sleep
      sets). Two adjacent turns by different processes commute unless they
      access the same object with at least one write/RMW
      ({!Sim.footprints_commute}); branches whose first turn commutes with
      an already-explored sibling branch are pruned, so (on acyclic spaces
      like these terminating runs) at most one schedule per
      Mazurkiewicz-equivalence class is checked. [check] must therefore be
      insensitive to the order of commuting turns — true for final-state
      properties and for the repo's linearizability checks. Requires all
      shared objects to be allocated during [setup] (raises
      [Invalid_argument] if a fiber allocates one mid-run).
    - [~domains:k] with [k > 1] partitions the top-level branch frontier
      across [k] OCaml domains (work queue, per-domain counters,
      deterministic merge). Each subtree runs on its worker's own pooled
      simulator, so workers share no simulator state — but
      [setup]/[check] closures run concurrently and must be domain-safe.
      With the default [domains:1] existing callers are fully sequential
      and deterministic. Counts are deterministic for complete
      explorations; when the [max_schedules] budget trips, which
      schedules were checked may vary between runs.

    Backtrack replays reuse one pooled simulator per worker ({!Sim.clear}
    plus a fresh [setup] instead of a fresh allocation). *)

type outcome = {
  schedules : int;  (** maximal schedules checked (never exceeds budget) *)
  truncated : bool;  (** true if a budget stopped the enumeration early *)
  truncated_runs : int;
      (** runs cut by [max_depth]; not counted as schedules, not checked *)
  pruned : int;  (** branches pruned by partial-order reduction *)
  steps_replayed : int;
      (** total simulator turns executed, including backtrack replays *)
  wall_s : float;  (** wall-clock seconds for the whole exploration *)
}

exception Replay_drift of int
(** A recorded schedule could not be replayed because the pid was no longer
    runnable — the simulation is not deterministic w.r.t. the schedule
    (e.g. [setup] depends on mutable state outside the simulator). The seed
    implementation silently skipped such pids, masking the drift. *)

val exhaustive :
  ?max_schedules:int ->
  ?max_depth:int ->
  ?por:bool ->
  ?domains:int ->
  ?obs:Scs_obs.Obs.t ->
  n:int ->
  setup:(Sim.t -> unit) ->
  check:(Sim.t -> Sim.pid list -> unit) ->
  unit ->
  outcome
(** [setup] must create shared objects and spawn all processes on the fresh
    simulator it receives. [check sim schedule] is called after each maximal
    run ([schedule] is the executed pid sequence); it should raise to report
    a violation. [max_schedules] budgets {e terminated runs} — maximal
    schedules and depth-truncated runs together — so exploration cost stays
    bounded even on spaces where most runs exceed [max_depth]. Defaults:
    [max_schedules = 200_000], [max_depth = 10_000], [por = false],
    [domains = 1].

    [obs] (default {!Scs_obs.Obs.null}) is attached to every simulator
    the engine creates, aggregating step counters across all explored
    schedules (including backtrack replays). With [domains > 1] each
    worker domain records into a private sink which is folded into
    [obs] at join ({!Scs_obs.Obs.merge_into}, worker-index order):
    counter totals are exact; the bounded ring's surviving events
    depend on which worker picked up which subtree. *)

(** The bench trajectory: the [BENCH_*.json] schema, its emitter, and
    its validator.

    Each PR commits a [BENCH_<pr>.json] at the repo root so later PRs
    have a cost trajectory to compare against (see [docs/metrics.md]
    for the schema contract and how each field is measured). The file
    is a single JSON object:

    {v
    { "schema": "scs.bench.trajectory/1",
      "run": "<identifier of the producing run>",
      "seed": <int>,
      "records": [
        { "workload": "<name>", "n": <int>, "runs": <int>,
          "p50_steps": <float>, "p99_steps": <float>,
          "max_interval_contention": <int>,
          "schedules_per_sec": <float> }, ... ] }
    v}

    [p50_steps]/[p99_steps] are percentiles of {e per-operation own
    steps} ({!Obs.op_metric}[.om_steps]) across all bracketed
    operations of all runs; [max_interval_contention] is the maximum
    {!Obs.op_metric}[.om_interval_contention] observed; and
    [schedules_per_sec] is completed runs divided by wall-clock time.
    {!validate} is the schema check CI runs against freshly emitted
    files.

    Records produced by the native load harness ([scs load]) carry an
    additional [native] sub-object with wall-clock metrics measured on
    real OCaml 5 domains:

    {v
    "native": { "backend": "native", "domains": <int>,
                "ops_per_sec": <float>,
                "p50_us": <float>, "p99_us": <float>, "p999_us": <float>,
                "abort_rate": <float> }
    v}

    The sub-object is optional, so files emitted before the native
    harness existed still validate under the same schema tag; for
    native records the simulator-step fields are zeroed and
    [schedules_per_sec] mirrors [ops_per_sec] (see [docs/metrics.md]). *)

type native = {
  backend : string;  (** ["native"] *)
  domains : int;  (** real domains driving the closed loop *)
  ops_per_sec : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;  (** per-op latency quantiles, microseconds *)
  abort_rate : float;  (** fast-path aborts per update operation *)
}

type record = {
  workload : string;
  sim_backend : string option;
      (** simulator primitive backend the record was measured on
          ({!Scs_prims.Backend.name}: ["sim-lin"], ["sim-sc:<lag>"]);
          emitted as an optional ["backend"] JSON key, so files
          predating the SC backend still validate and their records
          read back as [None] (implicitly sim-lin) *)
  n : int;
  runs : int;
  p50_steps : float;
  p99_steps : float;
  max_interval_contention : int;
  schedules_per_sec : float;
  native : native option;
}

type t = { run : string; seed : int; records : record list }

val schema_version : string
(** ["scs.bench.trajectory/1"]. *)

val to_json : t -> Scs_util.Json.t
val of_json : Scs_util.Json.t -> (t, string) result
(** [of_json] {e is} the validator: it checks the [schema] tag and the
    presence and type of every required field, returning a field-level
    error message on the first mismatch. *)

val save : string -> t -> unit
(** Write to a file, round-tripping through {!validate} first so an
    emitter bug can never commit an invalid trajectory ([Failure] on
    mismatch). *)

(** {1 Suite pairs} *)

val suite_pair_schema : string
(** ["scs.bench.suite-pair/1"]. *)

type side = {
  revision : string;
      (** the git commit the suite ran on; a [-dirty] suffix marks a
          working tree on top of it *)
  trees : (string * string) list;
      (** [(path, hash)]: the git tree hash of each measured source
          directory, so a [-dirty] side can be matched to the commit
          that contains it ([git rev-parse COMMIT:path]) *)
  suite : Scs_util.Json.t;  (** [scsbench]'s [results.json], verbatim *)
}

type paired = {
  p_workload : string;
  p_metric : string;
  p_parent : float;
  p_change : float;  (** one alternating parent/change pair of runs *)
}

type suite_pair = { label : string; parent : side; change : side; pairs : paired list }

val suite_pair_to_json : suite_pair -> Scs_util.Json.t

val suite_pair_of_json : Scs_util.Json.t -> (suite_pair, string) result
(** The validator: the schema tag, each side's revision and source
    trees, its suite's provenance ([host_cores], [ocaml]), a median for every end-to-end
    metric of every workload, the same workloads on both sides, and
    every pair's fields. *)

val save_suite_pair : string -> suite_pair -> unit
(** Write to a file, validating first, like {!save}. *)

(** {1 Any committed file} *)

type file = Trajectory of t | Suite_pair of suite_pair

val validate : string -> (file, string) result
(** Parse and validate a raw [BENCH_*.json] of either shape, chosen by
    its [schema] tag; an unknown tag is reported as a trajectory schema
    mismatch. *)

val load : string -> (file, string) result
(** {!validate} a file's contents. *)

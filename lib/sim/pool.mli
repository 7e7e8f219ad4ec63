(** Run-pool of simulators.

    Amortises harness cost across schedules: an acquired simulator is a
    released one rewound with {!Sim.clear} (arena capacities kept, so
    repeated setup+run cycles stop hitting the allocator) or, when the
    free list is empty, a fresh {!Sim.create}. Instances may be held
    across deferred verification — the pool grows to the number of
    simultaneously-held simulators and then reuses forever.

    Not thread-safe: use one pool per domain. *)

type t

type stats = {
  mutable created : int;  (** fresh [Sim.create] calls *)
  mutable reused : int;  (** acquisitions served by [Sim.clear] reuse *)
  mutable peak_objects : int;  (** largest object arena seen at release *)
  mutable peak_turns : int;  (** longest run (memory steps) seen at release *)
}

val create : ?max_steps:int -> ?obs:Scs_obs.Obs.t -> n:int -> unit -> t
(** All simulators built by this pool share these creation parameters
    (including the obs sink, which accumulates across runs as usual). *)

val acquire : t -> Sim.t
(** Take a simulator in post-[create] state (cleared if reused). *)

val release : t -> Sim.t -> unit
(** Return a simulator to the free list (records peak arena sizes; the
    actual rewind happens at the next {!acquire}). Do not use the
    simulator after releasing it. *)

val stats : t -> stats
(** Snapshot of the counters so far. *)

val size : t -> int
(** Simulators currently on the free list. *)

val zero_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Sum counters, max the peaks — for aggregating per-domain pools. *)

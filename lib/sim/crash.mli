(** Crash-event specifications.

    A crash event names a victim process [pid], a trigger threshold [at]
    (the event fires once the victim has executed at least [at] memory
    steps — the per-process step clock {!Sim.steps_of}), and an optional
    recovery delay: [None] is a terminal, fail-stop crash; [Some d]
    re-admits the process's registered recovery code {!Sim.set_recovery}
    after [d] further global memory steps. {!Sim.run}'s [?crashes]
    argument injects them.

    The textual forms round-trip through the [.scsrepro] format:
    [pid@at] for a terminal crash and [pid@at+d] for a recovering one;
    lists are comma-separated, with ["-"] denoting the empty list. *)

type t = { pid : int; at : int; recover : int option }

val terminal : pid:int -> at:int -> t
val recovering : pid:int -> at:int -> after:int -> t

val of_pairs : (int * int) list -> t list
(** Terminal crash events from the historic [(pid, at)] pair encoding. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val canonical : t list -> t list
(** Sorted (ascending pid, then trigger step) with duplicates removed —
    the order in which {!Sim.run} fires events. *)

val to_string : t -> string
val of_string : string -> t option
val list_to_string : t list -> string
(** ["-"] for the empty list, else comma-separated {!to_string} forms. *)

val list_of_string : string -> t list option
val pp : Format.formatter -> t -> unit

(** {1 Crash plans}

    The scheduling loop's view of an event list: one queue per pid. *)

type plan

val plan : n:int -> t list -> plan
(** Queue the {!canonical} events per pid ([0 <= pid < n]). *)

val fire : plan -> due:(t -> bool) -> (t -> unit) -> unit
(** [fire plan ~due f] visits the pids in ascending order and, for each
    whose next queued event satisfies [due], applies [f] to it and
    dequeues it: at most one event per pid per call. A pid's later
    events wait behind its head, so when [due] refuses a
    crashed-awaiting-recovery victim, a second crash event lands on the
    recovered incarnation rather than being swallowed. *)

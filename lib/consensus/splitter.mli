(** The splitter of Moir and Anderson, from two registers.

    Guarantees, within one "era" (between resets):
    - at most one process returns [Stop];
    - a process running alone (no concurrent [split]) returns [Stop];
    - if several processes enter, not all return [Left] and not all return
      [Right].

    [reset] may only be called by a process that owns the splitter and has
    verified the absence of contention (as in SplitConsensus, Algorithm 3,
    line 12); resetting under contention forfeits the guarantees for
    in-flight operations. *)

type result = Stop | Left | Right

module Make (P : Scs_prims.Prims_intf.S) : sig
  type t

  val create : name:string -> unit -> t
  val split : t -> pid:int -> result
  val reset : t -> unit
end

(** Baseline test-and-set implementations the speculative algorithm is
    benchmarked against.

    - {!Make.Hardware}: the raw hardware TAS (what the speculative object
      degrades to under permanent contention; one AWAR per operation even
      when uncontended).
    - {!Make.Tournament}: an Afek–Gafni–Tromp–Vitányi-style wait-free TAS
      from registers only: a doorway register in front of a binary
      tournament tree whose nodes are randomized two-process consensus
      instances ({!Scs_consensus.Cil_consensus}). A process that finds
      the door closed loses in one read; only processes that passed the
      doorway climb, in O(log n) expected steps. O(n) space, no RMW at
      all. *)

open Scs_spec

module Make (P : Scs_prims.Prims_intf.S) : sig
  module Hardware : sig
    type t

    val create : name:string -> unit -> t
    val test_and_set : t -> pid:int -> Objects.tas_resp
    val reset : t -> unit

    val read : t -> bool
    (** [tas_read] of the underlying object (read-only probe, used as the
        load harness's YCSB-read analogue). *)
  end

  module Tournament : sig
    type t

    val create : name:string -> n:int -> unit -> t
    (** Supports pids [0 .. n-1]; the tree has [n] leaves (n rounded up to
        a power of two internally). *)

    val test_and_set : t -> pid:int -> rng:Scs_util.Rng.t -> Objects.tas_resp
  end
end

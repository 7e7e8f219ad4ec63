(** The sharded key–value object type.

    The service partitions an integer keyspace into [buckets] hash
    buckets, each owned by exactly one shard (a universal-construction
    instance). A shard's sequential type is a key–value map extended
    with two administrative requests used by bucket migration:

    - [Freeze b] marks bucket [b] frozen and returns its current
      contents sealed as a sorted association list. Client operations
      ([Get]/[Put]) on a frozen bucket answer [Refused] and leave the
      state unchanged — so a committed [Refused] is a {e certificate of
      no effect}, which both the stale-route retry rule and the
      crash-recovery re-invocation rule rely on. Freezing is
      idempotent: no [Put] can commit between two [Freeze b] requests,
      hence both seal the same pairs.
    - [Install (b, pairs)] replaces bucket [b]'s contents with [pairs]
      and unfreezes it (used on the destination shard, and to abort a
      migration back onto the source).

    Because the shard orders all of this in its single
    universal-construction history, the IronFleet-style "drain
    in-flight operations" phase is implicit: an op racing a [Freeze]
    either commits before it (its effect is in the sealed pairs) or
    after it (it answers [Refused] and had no effect). *)

type req =
  | Get of int
  | Put of int * int
  | Freeze of int  (** bucket *)
  | Install of int * (int * int) list  (** bucket, sealed pairs *)

type resp =
  | Value of int
  | Ack
  | Refused  (** bucket frozen here — no effect; re-route and retry *)
  | Sealed of (int * int) list

type state
(** One key-sorted association list per bucket plus the sorted
    frozen-bucket list: canonical, so structural equality and hashing
    are sound for the checker's state memo. A [Put] copies the
    [buckets]-word bucket array and rebuilds one bucket's list, not the
    whole map. *)

val bucket_of_key : buckets:int -> int -> int
(** Deterministic hash partition; total on all [int] keys. The single
    routing function shared by the spec, the router and the checks. *)

val key_of_req : req -> int option
(** The client key, [None] for administrative requests. *)

val spec : buckets:int -> (state, req, resp) Scs_spec.Spec.t
(** The shard-local sequential specification described above. [Freeze
    b] seals bucket [b]'s list as it is. [Install (b, pairs)] empties
    bucket [b] and puts each pair into the bucket of its own key, so
    the spec stays total on pairs from any bucket; a bucket index out of
    range names an empty bucket. *)

val flat_spec : ((int * int) list, req, resp) Scs_spec.Spec.t
(** The client-facing keyspace specification: a plain map where [Get]
    and [Put] always succeed (no buckets, no freezing). Service-level
    client histories are checked against this — monolithically, or
    per-key via [Linearize.check_partitioned] (sound because the map
    is a product of independent per-key registers). Administrative
    requests never appear in client histories; they answer [Refused]
    here so the spec stays total. *)

val show_req : req -> string
val show_resp : resp -> string

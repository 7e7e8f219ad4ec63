(** The sorted-list shard spec, kept as a differential oracle.

    This is {!Scs_shard.Kv.spec} as it was before the state became an
    array of per-bucket lists: one key-sorted association list for the
    whole shard plus the sorted frozen-bucket list. It exists only so
    that the bucketed spec can be cross-validated against it
    (test_shard.ml's [kv-diff] group). *)

type state = { vals : (int * int) list; frozen : int list }

val spec : buckets:int -> (state, Scs_shard.Kv.req, Scs_shard.Kv.resp) Scs_spec.Spec.t

(** Seed-stable fan-out of a batch of runs over OCaml domains: the one
    splitter behind [Fuzz.run ?gen_domains] and
    [Obs_run.measure ?gen_domains]. *)

val run : streams:int -> runs:int -> (int -> lo:int -> hi:int -> 'a) -> 'a array
(** [run ~streams ~runs f] splits the run indices [0 .. runs-1] into
    [streams] contiguous ranges, stream [d] taking
    [runs / streams + (if d < runs mod streams then 1 else 0)] of them,
    and calls [f d ~lo ~hi] once per stream on its range [\[lo, hi)].
    At most [Domain.recommended_domain_count ()] OS domains run, the
    calling one included; worker [w] runs streams [w], [w + workers], …
    one after another, so which domain runs a stream cannot change its
    result. Results come back in stream order. With [streams = 1], [f]
    runs on the calling domain and nothing is spawned. Raises
    [Invalid_argument] if [streams < 1]. *)

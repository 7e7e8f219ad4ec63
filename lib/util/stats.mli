(** Descriptive statistics over samples of measurements.

    Used by the benchmark harness to summarize per-operation step counts,
    fence counts and wall-clock samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

val mean : float array -> float
val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    closest ranks. The input need not be sorted. *)

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val summarize_ints : int array -> summary

val mean_ci95 : float array -> float * float
(** Mean and its 95% normal-approximation confidence half-width
    (1.96·sd/√n); half-width 0 for n < 2. *)

val histogram : ?buckets:int -> float array -> (float * float * int) list
(** [(lo, hi, count)] bucket list spanning [min, max]. *)

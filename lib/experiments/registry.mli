(** Experiment registry: id → title → runner, shared by [bench/main.exe]
    and the [scs experiment] CLI command. *)

type t = {
  id : string;
  title : string;
  ns : int list;
      (** the process counts its largest n-sweep instantiates ([[]] when it
          sweeps none); each must be at most {!Scs_sim.Sim.max_processes} *)
  run : unit -> unit;
}

val all : t list
val find : string -> t option
val run_all : unit -> unit

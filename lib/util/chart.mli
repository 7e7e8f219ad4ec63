(** Minimal ASCII charts, used to render the paper's figure reproductions
    (contention-sweep series) directly on a terminal. *)

val bar : width:int -> max_value:float -> float -> string
(** A horizontal bar scaled so that [max_value] fills [width] cells. *)

val series :
  ?width:int -> title:string -> unit -> (string * float) list -> string
(** One labelled bar per data point, with the numeric value appended. *)

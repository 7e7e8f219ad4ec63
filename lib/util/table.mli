(** Fixed-width text tables for the experiment harness.

    The benchmark executable reports every reproduced table of the paper in
    this format so that EXPERIMENTS.md can quote the output verbatim. *)

type align = Left | Right

val render : ?title:string -> ?aligns:align list -> header:string list -> string list list -> string
(** Render a table with a header row, a separator, and body rows. Columns
    are padded to the widest cell; [aligns] defaults to [Left] for the first
    column and [Right] for the rest. *)

val print : ?title:string -> ?aligns:align list -> header:string list -> string list list -> unit

val fmt_int : int -> string

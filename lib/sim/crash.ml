(* Crash-event specifications: which process crashes, when, and whether
   (and after how long) it recovers. Shared by the scheduling loop's
   crash injection, the fuzzer's violation records, the shrinker and
   the [.scsrepro] textual format. *)

type t = { pid : int; at : int; recover : int option }

let terminal ~pid ~at = { pid; at; recover = None }
let recovering ~pid ~at ~after = { pid; at; recover = Some after }
let of_pairs ps = List.map (fun (pid, at) -> { pid; at; recover = None }) ps

let compare a b =
  let c = Int.compare a.pid b.pid in
  if c <> 0 then c
  else
    let c = Int.compare a.at b.at in
    if c <> 0 then c else Option.compare Int.compare a.recover b.recover

let equal a b = compare a b = 0

(* Sort into the order in which Sim.run fires events (Crash.fire):
   ascending pid, then ascending trigger step. *)
let canonical cs = List.sort_uniq compare cs

let to_string c =
  match c.recover with
  | None -> Printf.sprintf "%d@%d" c.pid c.at
  | Some d -> Printf.sprintf "%d@%d+%d" c.pid c.at d

let of_string s =
  match String.index_opt s '@' with
  | None -> None
  | Some i -> (
      let pid = int_of_string_opt (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let at, recover =
        match String.index_opt rest '+' with
        | None -> (int_of_string_opt rest, Some None)
        | Some j -> (
            ( int_of_string_opt (String.sub rest 0 j),
              match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
              | Some d when d >= 0 -> Some (Some d)
              | _ -> None ))
      in
      match (pid, at, recover) with
      | Some pid, Some at, Some recover when pid >= 0 && at >= 0 -> Some { pid; at; recover }
      | _ -> None)

let list_to_string = function
  | [] -> "-"
  | cs -> String.concat "," (List.map to_string cs)

let list_of_string s =
  if String.trim s = "-" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> ( match of_string (String.trim p) with None -> None | Some c -> go (c :: acc) rest)
    in
    go [] parts

let pp fmt c = Format.pp_print_string fmt (to_string c)

(* Per-pid event queues, each in canonical (ascending trigger) order, and
   the number of events not yet fired. *)
type plan = { mutable left : int; queues : t list array }

let plan ~n events =
  let queues = Array.make n [] in
  let events = canonical events in
  List.iter (fun c -> queues.(c.pid) <- queues.(c.pid) @ [ c ]) events;
  { left = List.length events; queues }

let fire plan ~due f =
  if plan.left > 0 then
    for p = 0 to Array.length plan.queues - 1 do
      match Array.unsafe_get plan.queues p with
      | c :: rest when due c ->
          f c;
          Array.unsafe_set plan.queues p rest;
          plan.left <- plan.left - 1
      | _ -> ()
    done

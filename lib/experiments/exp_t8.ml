(** T8 — The solo-fast variant (Appendix B): a process reverts to the
    hardware object only when {e itself} encountering step contention; a
    process whose interval merely overlaps somebody else's contention
    keeps the fast path. *)

open Scs_util
open Scs_sim
open Scs_workload

(* Compare fallback rates: the paper variant aborts in "solidarity" (the
   aborted flag diverts everyone), the solo-fast variant only on first-
   person interference. We engineer schedules where two processes collide
   and a third runs after the collision. *)
let third_party_fallbacks ~algo ~runs =
  let third_fell_back = ref 0 and applicable = ref 0 in
  for seed = 1 to runs do
    let rng = Rng.create seed in
    let r =
      Tas_run.one_shot ~seed ~n:3 ~algo
        ~policy:(fun _ ->
          (* interleave p0/p1 tightly while they live, then run p2 alone *)
          fun sim ->
            let runnable = Sim.runnable sim in
            let racers = List.filter (fun p -> p < 2) runnable in
            match racers with
            | _ :: _ -> Rng.pick_list rng racers
            | [] -> ( match runnable with [] -> -1 | p :: _ -> p))
        ()
    in
    (* p2 ran effectively alone after the collision *)
    match
      List.find_opt (fun (o : Tas_run.op_record) -> o.Tas_run.pid = 2) r.Tas_run.ops
    with
    | Some o ->
        incr applicable;
        if o.Tas_run.stage = Some Scs_tas.One_shot.Fallback then incr third_fell_back
    | None -> ()
  done;
  (!third_fell_back, !applicable)

let solo_cost ~algo =
  let r = Tas_run.one_shot ~n:4 ~algo ~policy:(fun _ -> Policy.solo 0) () in
  match r.Tas_run.ops with o :: _ -> (o.Tas_run.steps, o.Tas_run.rmws) | [] -> (0, 0)

let run () =
  Exp_common.section "T8" "Solo-fast variant: hardware only on first-person contention";
  let rows =
    List.map
      (fun (name, algo) ->
        let fell, app = third_party_fallbacks ~algo ~runs:120 in
        let steps, rmws = solo_cost ~algo in
        [
          name;
          Printf.sprintf "%d/%d" fell app;
          string_of_int steps;
          string_of_int rmws;
        ])
      [
        ("paper A1∘A2", Tas_run.Composed);
        ("solo-fast (App. B)", Tas_run.Solo_fast);
      ]
  in
  Table.print
    ~title:
      "Third process arriving after a 2-way collision: does it pay for the hardware? \
       (paper: the solo-fast variant keeps such bystanders on registers)"
    ~header:[ "variant"; "bystander fallbacks"; "solo steps"; "solo RMWs" ]
    rows

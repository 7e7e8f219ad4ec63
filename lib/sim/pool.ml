(* Run-pool of simulators (Model "clear": a released simulator is
   rewound to its post-create empty state on reacquisition, keeping its
   arena capacities). Simulators may be held across deferred checks, so
   the pool grows to the number of simultaneously-held instances and
   then stops allocating. Not thread-safe: use one pool per domain. *)

open Scs_util

type stats = {
  mutable created : int;
  mutable reused : int;
  mutable peak_objects : int;
  mutable peak_turns : int;
}

type t = {
  n : int;
  max_steps : int option;
  obs : Scs_obs.Obs.t option;
  free : Sim.t Vec.t;
  stats : stats;
}

let create ?max_steps ?obs ~n () =
  {
    n;
    max_steps;
    obs;
    free = Vec.create ();
    stats = { created = 0; reused = 0; peak_objects = 0; peak_turns = 0 };
  }

let make_sim p =
  match (p.max_steps, p.obs) with
  | Some ms, Some obs -> Sim.create ~max_steps:ms ~obs ~n:p.n ()
  | Some ms, None -> Sim.create ~max_steps:ms ~n:p.n ()
  | None, Some obs -> Sim.create ~obs ~n:p.n ()
  | None, None -> Sim.create ~n:p.n ()

let acquire p =
  let len = Vec.length p.free in
  if len = 0 then begin
    p.stats.created <- p.stats.created + 1;
    make_sim p
  end
  else begin
    let sim = Vec.get p.free (len - 1) in
    Vec.truncate p.free (len - 1);
    p.stats.reused <- p.stats.reused + 1;
    Sim.clear sim;
    sim
  end

let release p sim =
  let s = p.stats in
  if Sim.objects_allocated sim > s.peak_objects then s.peak_objects <- Sim.objects_allocated sim;
  if Sim.clock sim > s.peak_turns then s.peak_turns <- Sim.clock sim;
  Vec.push p.free sim

let stats p = { p.stats with created = p.stats.created }
let size p = Vec.length p.free

let merge_stats ~into s =
  into.created <- into.created + s.created;
  into.reused <- into.reused + s.reused;
  if s.peak_objects > into.peak_objects then into.peak_objects <- s.peak_objects;
  if s.peak_turns > into.peak_turns then into.peak_turns <- s.peak_turns

let zero_stats () = { created = 0; reused = 0; peak_objects = 0; peak_turns = 0 }

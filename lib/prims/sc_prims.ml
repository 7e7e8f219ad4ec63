open Scs_util
open Scs_sim

let default_lag = 1

let make ?(lag = default_lag) (sim : Sim.t) : (module Prims_intf.S) =
  if lag < 0 then invalid_arg "Sc_prims.make: lag must be non-negative";
  let n = Sim.n sim in
  (module struct
    (* A register is a full write log plus one view cursor per process.
       [log] entry 0 is the creation value; [views.(p)] indexes the last
       write process [p] has observed. A read serves the *most stale*
       value the lag bound allows — [max views.(p) (length - 1 - lag)],
       i.e. at most [lag] writes behind the log head — and stores the
       index back, so each process's view of each register is monotone
       (reads never travel back in time) and contains the process's own
       writes (a write advances the writer's view to the log head).
       Those two properties make every single register's history
       sequentially consistent by construction. Logs are per-register
       and there is no order between different registers' logs, so the
       register *memory* as a whole is only per-object SC — the
       store-buffering outcome (both processes read the other's register
       stale) is reachable, which is exactly the non-compositionality
       the differential fuzzer hunts for.

       Staleness is deterministic-maximal rather than randomized: the
       adversary is the schedule alone, so recorded schedules replay and
       shrink bit-for-bit, and [lag = 0] degenerates to the atomic
       backend (reads always serve the log head). *)
    type 'a reg = { log : 'a Vec.t; views : int array; id : int; name : string }

    let make_reg ~volatile ~name v =
      let log = Vec.create () in
      Vec.push log v;
      let views = Array.make n 0 in
      (* a volatile SC register loses its whole write log on any crash:
         survivors fall back to the creation value and, views being
         rewound too, monotonicity restarts from the wiped state *)
      let wipe () =
        Vec.truncate log 1;
        Array.fill views 0 n 0
      in
      let id = Sim.custom_obj sim ?wipe:(if volatile then Some wipe else None) () in
      { log; views; id; name }

    let reg ~name v = make_reg ~volatile:false ~name v
    let volatile_reg ~name v = make_reg ~volatile:true ~name v

    let read r =
      Sim.custom_op ~obj:r.id ~obj_name:r.name ~kind:Op.Read ~info:"" (fun () ->
          let pid = Sim.running_pid sim in
          let view = max r.views.(pid) (Vec.length r.log - 1 - lag) in
          r.views.(pid) <- view;
          Vec.get r.log view)

    let write r v =
      Sim.custom_op ~obj:r.id ~obj_name:r.name ~kind:Op.Write ~info:"" (fun () ->
          let pid = Sim.running_pid sim in
          Vec.push r.log v;
          r.views.(pid) <- Vec.length r.log - 1)

    (* RMW objects stay atomic — SC-ABD style: the reordering model
       applies to plain read/write registers only, consensus objects
       keep their linearizable semantics. Delegate to the simulator's
       built-in objects. *)
    type tas_obj = Sim.tas_obj

    let tas_obj ~name () = Sim.tas_obj sim ~name ()
    let test_and_set = Sim.test_and_set
    let tas_read = Sim.tas_read
    let tas_reset = Sim.tas_reset

    type fai_obj = Sim.fai_obj

    let fai_obj ~name v = Sim.fai_obj sim ~name v
    let fetch_and_inc = Sim.fetch_and_inc
    let fai_read = Sim.fai_read

    type 'a swap_obj = 'a Sim.swap_obj

    let swap_obj ~name v = Sim.swap_obj sim ~name v
    let swap = Sim.swap
    let swap_read = Sim.swap_read

    type 'a cas_obj = 'a Sim.cas_obj

    let cas_obj ~name v = Sim.cas_obj sim ~name v
    let cas_read = Sim.cas_read
    let compare_and_swap = Sim.compare_and_swap

    let pause () = Sim.pause sim
  end)

(* [Native_prims] with per-domain operation counts, attributed to a
   layer by each object's creation tag ({!Tracer.tag_of_name}, or the
   tag forced by the enclosing stage factory). A mailbox cell also
   remembers the domain that created it, so a write by another domain
   counts as a combined (served-by-someone-else) response. *)

module T = Tracer

let self () = (Domain.self () :> int)

let tag_for name =
  let st = T.get () in
  if st.T.ctx >= 0 then st.T.ctx
  else
    let tag = T.tag_of_name name in
    if tag = T.t_cell then tag lor ((self () + 1) lsl 8) else tag

let[@inline] count tag kind = T.count (T.get ()) (tag land 0xff) kind

type 'a reg = { r : 'a Atomic.t; rtag : int }

let reg ~name v = { r = Atomic.make v; rtag = tag_for name }
let volatile_reg = reg

let read x =
  count x.rtag T.k_read;
  Atomic.get x.r

let write x v =
  let st = T.get () in
  T.count st (x.rtag land 0xff) T.k_write;
  if x.rtag land 0xff = T.t_cell && (x.rtag lsr 8) - 1 <> self () then
    T.bump st T.e_foreign_cell 1;
  Atomic.set x.r v

let rmw tag ok =
  let st = T.get () in
  T.count st (tag land 0xff) T.k_rmw;
  if not ok then T.count st (tag land 0xff) T.k_rmw_fail

type tas_obj = { t : bool Atomic.t; ttag : int }

let tas_obj ~name () = { t = Atomic.make false; ttag = tag_for name }

let test_and_set o =
  let won = not (Atomic.exchange o.t true) in
  rmw o.ttag won;
  won

let tas_read o =
  count o.ttag T.k_read;
  Atomic.get o.t

let tas_reset o =
  count o.ttag T.k_write;
  Atomic.set o.t false

type fai_obj = { f : int Atomic.t; ftag : int }

let fai_obj ~name v = { f = Atomic.make v; ftag = tag_for name }

let fetch_and_inc o =
  rmw o.ftag true;
  Atomic.fetch_and_add o.f 1

let fai_read o =
  count o.ftag T.k_read;
  Atomic.get o.f

type 'a swap_obj = { s : 'a Atomic.t; stag : int }

let swap_obj ~name v = { s = Atomic.make v; stag = tag_for name }

let swap o v =
  rmw o.stag true;
  Atomic.exchange o.s v

let swap_read o =
  count o.stag T.k_read;
  Atomic.get o.s

type 'a cas_obj = { c : 'a Atomic.t; ctag : int }

let cas_obj ~name v = { c = Atomic.make v; ctag = tag_for name }

let cas_read o =
  count o.ctag T.k_read;
  Atomic.get o.c

let compare_and_swap o ~expect ~update =
  let ok = Atomic.compare_and_set o.c expect update in
  rmw o.ctag ok;
  ok

let pause () = Domain.cpu_relax ()

type result = Stop | Left | Right


module Make (P : Scs_prims.Prims_intf.S) = struct
  type t = { x : int option P.reg; y : bool P.reg }

  let create ~name () =
    { x = P.reg ~name:(name ^ ".X") None; y = P.reg ~name:(name ^ ".Y") false }

  let split t ~pid =
    P.write t.x (Some pid);
    if P.read t.y then Right
    else begin
      P.write t.y true;
      if P.read t.x = Some pid then Stop else Left
    end

  let reset t =
    P.write t.x None;
    P.write t.y false
end

type t = {
  model : Model.t;
  leg_step : int array;
  first_write : (string, int) Hashtbl.t;
  final_wb : int array;
}

let of_model (m : Model.t) =
  (* one walk over the leg list; an [Array.of_list] of it would seed a
     long array with a young leg and force a minor collection *)
  let legs = fst (Model.all_legs m) in
  let leg_step = Array.make (List.length legs) 0 in
  let first_write = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace first_write b (m.cs_max + 1)) m.buses;
  let final_wb = ref [] in
  List.iteri
    (fun i (l : Transfer.leg) ->
      leg_step.(i) <- l.step;
      let sink = Transfer.endpoint_name l.dst in
      (match Hashtbl.find_opt first_write sink with
       | Some s when s <= l.step -> ()
       | _ -> Hashtbl.replace first_write sink l.step);
      if l.step = m.cs_max && Phase.equal l.phase Phase.Wb then
        final_wb := i :: !final_wb)
    legs;
  { model = m; leg_step; first_write;
    final_wb = Array.of_list (List.rev !final_wb) }

let step t index =
  if index >= 0 && index < Array.length t.leg_step then
    Some t.leg_step.(index)
  else None

open Softswitch

type t = {
  ss1s : Soft_switch.t array;
  ss2 : Soft_switch.t;
  offsets : int array;
}

let build engine ?dataplane ?pmd ~nics ~ss2 members =
  let switch name ~ports miss =
    Soft_switch.create engine ~name ~ports ?dataplane ?pmd ~miss ()
  in
  let maps = Array.of_list (List.map snd members) in
  let offsets = Array.make (Array.length maps) 0 in
  for m = 1 to Array.length maps - 1 do
    offsets.(m) <- offsets.(m - 1) + Port_map.size maps.(m - 1)
  done;
  let ss1s =
    Array.of_list
      (List.map
         (fun (name, map) ->
           switch (name ^ "-ss1") ~ports:(nics + Port_map.size map)
             Soft_switch.Drop_on_miss)
         members)
  in
  let total = Array.fold_left (fun n map -> n + Port_map.size map) 0 maps in
  let ss2 = switch ss2 ~ports:total Soft_switch.Send_to_controller in
  Array.iteri
    (fun m map ->
      for i = 0 to Port_map.size map - 1 do
        Patch_port.connect
          (Soft_switch.node ss1s.(m), nics + i)
          (Soft_switch.node ss2, offsets.(m) + i)
      done;
      Translator.install ss1s.(m) map)
    maps;
  { ss1s; ss2; offsets }
